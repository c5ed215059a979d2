(** Dantzig–Wolfe decomposition for block-angular LPs.

    The event LP couples per-rank column groups (configuration weights
    and per-rank vertex times, with their private convexity/blend rows)
    only through job-wide rows: power caps, precedence/order rows over
    shared vertices, the deadline row.  {!solve} exploits that
    structure by column generation — a restricted master over the
    coupling rows plus one convexity row per block, and one small
    pricing LP per block, solved concurrently on {!Putil.Pool} — one
    task per contiguous chunk of blocks, as many chunks as the pool has
    domains — with per-block warm bases (structure never changes, only
    objectives).  Proposals are merged in block order regardless of
    completion order, so iterates are identical at every
    [POWERLIM_JOBS].

    On convergence the aggregated point is crossed over to a monolithic
    basis and certified by one warm {!Revised.solve} of the original
    problem at full precision; on {e any} trouble the monolithic solver
    is re-run instead.  [POWERLIM_DW=0/1] can therefore differ only in
    speed, never in results.

    Knobs: [POWERLIM_DW] (default on) gates the whole path;
    [POWERLIM_DW_MIN_RANKS] (default 512) is the minimum block count
    below which the monolithic path runs unchanged. *)

type structure = {
  col_block : int array;
      (** per structural column: owning block in [0 .. nblocks-1], or
          [-1] for a shared column (may appear in coupling rows) *)
  nblocks : int;  (** block count (typically the rank count) *)
  box : float;
      (** finite stand-in for infinite column bounds inside the pricing
          subproblems, keeping every block LP bounded.  Affects only
          convergence speed: the final certified solve uses the true
          bounds. *)
  guard_rows : int array;
      (** rows whose all-slack (zero-dual) state marks the instance as
          unconstrained-degenerate; the decomposition then defers to the
          monolithic solver so alternate-optimum vertex selection
          matches [POWERLIM_DW=0] (the convention
          {!Experiments.Common.run_sweep} uses for unconstraining
          caps).  Empty disables the guard. *)
}

val structure :
  ?box:float -> ?guard_rows:int array -> nblocks:int -> int array -> structure
(** [structure ~nblocks col_block] with [box] defaulting to [1e9] and no
    guard rows. *)

val dw_enabled : unit -> bool
(** Current value of the [POWERLIM_DW] gate (default on). *)

val dw_min_ranks : unit -> int
(** Current value of [POWERLIM_DW_MIN_RANKS] (default 512, min 1). *)

val dw_gap : unit -> float
(** Current value of [POWERLIM_DW_GAP] (default [1e-4]): the relative
    Lagrangian gap at which column generation hands over to the exact
    crossover solve.  Only trades master iterations against crossover
    pivots; the result is certified at full precision either way. *)

val engaged : structure -> Model.problem -> bool
(** Whether {!solve} would attempt the decomposition for this structure
    and problem under the current environment knobs (before the
    per-call [warm]/[lb]/[ub] checks). *)

val solve :
  ?max_iter:int ->
  ?feas_tol:float ->
  ?opt_tol:float ->
  ?lb:float array ->
  ?ub:float array ->
  ?rhs:float array ->
  ?warm:Revised.basis ->
  ?analysis:Revised.analysis ->
  ?bands:int array * int array ->
  ?structure:structure ->
  Model.problem ->
  Revised.result
(** Drop-in superset of {!Revised.solve}: identical contract and result,
    plus [structure].  The decomposition engages only for a cold solve
    ([warm] absent, no bound overrides) of a continuous problem with at
    least [POWERLIM_DW_MIN_RANKS] blocks under [POWERLIM_DW=1]; in
    every other case — including any failure or degeneracy detected
    mid-decomposition — the call behaves exactly like
    {!Revised.solve}. *)
