(** Bounded-variable revised simplex with sparse basis factorization
    ({!Lu}) and product-form (eta) updates.

    FTRAN/BTRAN run hypersparse by default: the triangular solves visit
    only the symbolic reachability set of the right-hand side's nonzeros
    ({!Lu.solve_sp}/{!Lu.solve_t_sp}), with an adaptive fallback to the
    dense kernels when the result fills in.  Pricing is devex
    reference-framework pricing over a candidate list (incrementally
    maintained reduced costs; optimality certified by an exact full
    scan), with an automatic switch to (full-scan) Bland's rule after a
    run of degenerate pivots; the ratio test is a two-pass Harris test.
    Infeasible starting points are repaired by a phase-1 objective over
    artificial variables.

    Re-solves of the same problem with different bounds or RHS can be
    warm-started: pass a previous result's {!type:basis} as [?warm] and
    the solver repairs it against the new bounds and runs a dual simplex
    (largest-violation leaving row, dual ratio test with bound flips)
    instead of the cold phase-1/2 path.  Any irreparable warm state falls
    back to a cold solve, so warm calls are never less robust.

    Environment knobs: [POWERLIM_DEVEX=0] restores the classic Dantzig
    partial-pricing loop (bit-identical to the pre-devex solver);
    [POWERLIM_HYPERSPARSE=0] forces the dense FTRAN/BTRAN kernels;
    [POWERLIM_ETA_LIMIT] (default 64) sets the eta-file length that
    triggers refactorization.  [LP_PARANOID] enables expensive per-pivot
    invariant checks (each pivot verified against a fresh factorization);
    [LP_DUMP_BASIS=<path>] dumps the first offending basis;
    [LP_STATS] prints a per-solve breakdown of wall-clock phase times to
    stderr.
    Aggregate counters (cold/warm solves, primal/dual pivots, kernel
    sparse/dense splits, wall time) are accumulated in {!Stats}. *)

type status = Optimal | Infeasible | Unbounded | Iter_limit

val pp_status : Format.formatter -> status -> unit

type basis = {
  basic : int array;
      (** column of each basis position, length [nr]; structural columns
          are [0..nv-1], slacks [nv..nv+nr-1] *)
  vstat : char array;
      (** per-column status, length [nv+nr]: ['b'] basic, ['l']/['u'] at
          lower/upper bound, ['f'] free at zero *)
}

type result = {
  status : status;
  objective : float;
  x : float array;  (** structural primal values, length [nv] *)
  y : float array;  (** row duals, length [nr] *)
  dj : float array;  (** structural reduced costs, length [nv] *)
  iterations : int;
  basis : basis option;
      (** final simplex basis, reusable as [?warm] on a re-solve of the
          same problem shape; [None] when no clean slack/structural basis
          exists (e.g. constraint-free models) *)
}

type analysis
(** Symbolic analysis of a problem's constraint matrix (row-major view
    used by pivot-row pricing).  Build once with {!make_analysis} and
    pass to every [solve] of the same matrix — cap sweeps and
    branch-and-bound children change only bounds/RHS, so the analysis
    stays valid.  Immutable: safe to share across pool domains. *)

val make_analysis : Model.problem -> analysis

val refactor_limit : unit -> float
(** Effective Forrest–Tomlin refactorization fill-ratio trigger:
    [POWERLIM_REFACTOR] when set to a finite value [> 1.0], else the
    default [2.0].  Exposed so tests can pin the documented default
    against the code. *)

val solve :
  ?max_iter:int ->
  ?feas_tol:float ->
  ?opt_tol:float ->
  ?lb:float array ->
  ?ub:float array ->
  ?rhs:float array ->
  ?warm:basis ->
  ?warm_primal:bool ->
  ?analysis:analysis ->
  ?bands:int array * int array ->
  Model.problem ->
  result
(** [solve p] minimizes [p].  [lb]/[ub]/[rhs] override the structural
    bounds / row RHS without rebuilding the problem (used by branch and
    bound and by power-cap re-solves).  [warm] supplies a starting basis
    from a previous solve of the same problem shape ([nv]/[nr]
    unchanged); it is repaired against the current bounds and re-solved
    with the dual simplex, falling back to a cold solve when repair is
    impossible.  [warm_primal] (default [false]) asserts the warm basis
    is primal feasible for the new data (column generation: new columns
    enter nonbasic at bound, objective and bounds otherwise unchanged),
    skipping the dual-feasibility bound-flip repair in favour of a
    direct primal phase-2 run; when the basis turns out primal
    infeasible the normal repair path runs instead.  [analysis] reuses a {!make_analysis} of [p] (matrix
    unchanged) instead of rebuilding it per solve.  [bands] is a
    [(col_bands, row_bands)] pair of staircase stage indices (lengths
    [nv] and [nr]); every factorization orders the basis band-major
    with Markowitz tie-breaking within a band ({!Lu.factor}'s [?bands]),
    slack and artificial columns inheriting their row's band.  Purely a
    fill-reducing hint: results are unaffected beyond roundoff-level
    pivot ordering.  [max_iter <= 0] selects a size-dependent
    default. *)
