(** Dantzig–Wolfe decomposition for block-angular LPs.

    The event LP is block-angular by construction: per-rank groups of
    columns (configuration weights, per-rank vertex times) whose private
    rows (convexity/blend rows) touch no other rank, coupled only by the
    job-wide rows (power caps, precedence/order rows through shared
    vertices, the deadline row).  The caller tags each column with its
    owning block ({!structure}); rows are classified here from the
    matrix itself — a row all of whose columns live in one block is that
    block's row, everything else is a coupling (master) row.

    The algorithm is textbook column generation with the repo's existing
    machinery for every LP it touches:

    - the {e restricted master} (coupling rows + one convexity row per
      block, over proposal columns [lambda] plus the shared columns and
      big-M artificials) is re-solved with {!Revised.solve} warm-started
      from the previous master basis — appending columns only extends
      the variable-status array, rows never change;
    - the K {e pricing subproblems} are independent small LPs (one per
      block, structure fixed, only the objective changes with the master
      duals), solved concurrently on {!Putil.Pool} with per-block basis
      reuse across iterations.  Futures are awaited and merged in block
      order, so the iterate sequence is identical at any
      [POWERLIM_JOBS];
    - on convergence the aggregated primal point is {e crossed over} to
      a monolithic basic solution: columns at their bounds are pinned
      (lb = ub), the pinned LP is solved cold to a basis, and that basis
      warm-starts one final {!Revised.solve} of the {e original}
      problem, whose own exact optimality scan certifies every reduced
      cost at [opt_tol].  The result returned to the caller is a plain
      full-space {!Revised.result} — byte-compatible with the
      monolithic path.

    Any trouble anywhere (master or subproblem not optimal, artificials
    stuck at positive values, certification failure, all-slack coupling
    duals on a guarded instance) abandons the decomposition and re-runs
    the monolithic solver, so [POWERLIM_DW=0/1] can differ only in
    speed, never in results. *)

let src = Logs.Src.create "powerlim.decomp" ~doc:"Dantzig-Wolfe decomposition"

module Log = (val Logs.src_log src : Logs.LOG)

type structure = {
  col_block : int array;
      (** per structural column: owning block in [0 .. nblocks-1], or
          [-1] for a shared column that may appear in coupling rows *)
  nblocks : int;  (** number of blocks (typically the rank count) *)
  box : float;
      (** finite bound substituted for infinite column bounds inside the
          pricing subproblems so every block LP is bounded.  Must be
          large enough that some optimal solution fits; correctness does
          not depend on it (the final certified solve uses true bounds),
          only convergence speed does. *)
  guard_rows : int array;
      (** rows whose duals decide degeneracy canonicalization: when the
          certified solution has (numerically) zero duals on {e all} of
          them, the instance is treated as unconstrained-degenerate and
          re-solved monolithically so alternate-optimum vertex selection
          matches the [POWERLIM_DW=0] path (the same convention
          {!Experiments.Common.run_sweep} uses for unconstraining caps).
          Empty disables the guard. *)
}

let structure ?(box = 1e9) ?(guard_rows = [||]) ~nblocks col_block =
  { col_block; nblocks; box; guard_rows }

let dw_enabled () = Putil.Env.flag "POWERLIM_DW" ~default:true
let dw_min_ranks () = Putil.Env.int ~lo:1 "POWERLIM_DW_MIN_RANKS" ~default:512

(* Relative Lagrangian-gap tolerance at which column generation hands
   over to the crossover; the final exact solve certifies the result at
   full precision regardless, so this only trades master iterations
   against crossover pivots. *)
let dw_gap () = Putil.Env.float ~lo_exclusive:0.0 "POWERLIM_DW_GAP" ~default:1e-4

(* DW pays off when there are many blocks; below the threshold the
   monolithic solver wins and runs unchanged. *)
let engaged (s : structure) (p : Model.problem) =
  dw_enabled ()
  && s.nblocks >= dw_min_ranks ()
  && Array.length s.col_block = p.Model.nv
  && (not (Array.exists Fun.id p.Model.integer))
  && p.Model.nr > 0

(* ------------------------------------------------------------------ *)
(* Structure extraction                                                *)
(* ------------------------------------------------------------------ *)

type split = {
  blocks : int array array;  (* per pricing component: its columns, ascending *)
  block_rows : int array array;  (* per component: its rows, ascending *)
  mrows : int array;  (* coupling rows, ascending *)
  m_of_row : int array;  (* row -> coupling index, -1 for block rows *)
  shared : int array;  (* master direct columns, ascending *)
}

(* Classify rows from the matrix — a row whose columns all belong to one
   block is private to it; rows touching shared columns, several blocks,
   or nothing at all are coupling rows — then {e disaggregate}: the
   pricing units are the connected components of the (block rows x block
   columns) bipartite graph, not the declared blocks.  A declared block
   whose private rows never chain its columns together (the event LP's
   per-rank block splits into one component per task, each a single
   blend row) prices component-by-component, and that is what makes
   column generation converge in a handful of iterations: a fractional
   mix over one task costs two proposals of a small component instead of
   an exponential cover of the whole rank's product polytope.  Block
   columns attached to no block row can only appear in coupling rows, so
   they move to the master as direct columns.  O(nnz alpha(nv)). *)
let split_problem (s : structure) (p : Model.problem) : split =
  let nv = p.Model.nv and nr = p.Model.nr in
  let csr = Sparse.Csc.rows p.Model.a in
  let row_block = Array.make nr (-2) in
  (* -2 = unseen, -1 = coupling, k = pure block k *)
  for i = 0 to nr - 1 do
    let lo = csr.Sparse.Csc.rowptr.(i) and hi = csr.Sparse.Csc.rowptr.(i + 1) in
    if lo = hi then row_block.(i) <- -1
    else
      for t = lo to hi - 1 do
        let b = s.col_block.(csr.Sparse.Csc.colind.(t)) in
        match row_block.(i) with
        | -2 -> row_block.(i) <- b
        | -1 -> ()
        | cur -> if cur <> b then row_block.(i) <- -1
      done
  done;
  (* union-find over columns, merged through every pure block row *)
  let parent = Array.init nv Fun.id in
  let rec find j = if parent.(j) = j then j else find parent.(j) in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then if ra < rb then parent.(rb) <- ra else parent.(ra) <- rb
  in
  let rooted = Array.make nv false in
  (* a rooted component owns at least one block row *)
  for i = 0 to nr - 1 do
    if row_block.(i) >= 0 then begin
      let lo = csr.Sparse.Csc.rowptr.(i) in
      let hi = csr.Sparse.Csc.rowptr.(i + 1) in
      for t = lo + 1 to hi - 1 do
        union csr.Sparse.Csc.colind.(lo) csr.Sparse.Csc.colind.(t)
      done;
      rooted.(find csr.Sparse.Csc.colind.(lo)) <- true
    end
  done;
  (* number components by ascending first column: deterministic *)
  let comp_of_root = Hashtbl.create (2 * max 16 s.nblocks) in
  let ncomp = ref 0 in
  let shared = ref [] in
  for j = 0 to nv - 1 do
    if s.col_block.(j) < 0 then shared := j :: !shared
    else begin
      let r = find j in
      if not rooted.(r) then shared := j :: !shared
      else if not (Hashtbl.mem comp_of_root r) then begin
        Hashtbl.add comp_of_root r !ncomp;
        incr ncomp
      end
    end
  done;
  let comp_cols = Array.make (max 1 !ncomp) []
  and comp_rows = Array.make (max 1 !ncomp) [] in
  for j = nv - 1 downto 0 do
    if s.col_block.(j) >= 0 then begin
      let r = find j in
      if rooted.(r) then
        let k = Hashtbl.find comp_of_root r in
        comp_cols.(k) <- j :: comp_cols.(k)
    end
  done;
  for i = nr - 1 downto 0 do
    if row_block.(i) >= 0 then begin
      let k = Hashtbl.find comp_of_root (find csr.Sparse.Csc.colind.(csr.Sparse.Csc.rowptr.(i))) in
      comp_rows.(k) <- i :: comp_rows.(k)
    end
  done;
  let blocks = Array.init !ncomp (fun k -> Array.of_list comp_cols.(k)) in
  let block_rows = Array.init !ncomp (fun k -> Array.of_list comp_rows.(k)) in
  let mrows = ref [] in
  for i = nr - 1 downto 0 do
    if row_block.(i) < 0 then mrows := i :: !mrows
  done;
  let mrows = Array.of_list !mrows in
  let m_of_row = Array.make nr (-1) in
  Array.iteri (fun t i -> m_of_row.(i) <- t) mrows;
  {
    blocks;
    block_rows;
    mrows;
    m_of_row;
    shared = Array.of_list (List.rev !shared);
  }

(* ------------------------------------------------------------------ *)
(* Subproblem and master construction                                  *)
(* ------------------------------------------------------------------ *)

let boxed box v =
  if Float.is_finite v then v else if v > 0.0 then box else -.box

(* Pricing subproblem of one block: its private rows over its columns,
   infinite bounds replaced by the box so the LP is always bounded.  The
   objective is a placeholder; every DW iteration substitutes the
   dual-adjusted costs via a record copy (the matrix is shared). *)
let block_problem (s : structure) (p : Model.problem) ~rhs cols rows :
    Model.problem =
  let nbv = Array.length cols and nbr = Array.length rows in
  let local = Hashtbl.create (2 * nbr) in
  Array.iteri (fun t i -> Hashtbl.replace local i t) rows;
  let coo = Sparse.Coo.create ~capacity:(4 * max 1 nbv) () in
  Array.iteri
    (fun jt j ->
      Sparse.Csc.iter_col p.Model.a j (fun i v ->
          match Hashtbl.find_opt local i with
          | Some it -> Sparse.Coo.add coo it jt v
          | None -> ()))
    cols;
  {
    Model.nv = nbv;
    nr = nbr;
    a = Sparse.Csc.of_coo ~nrows:nbr ~ncols:nbv coo;
    lb = Array.map (fun j -> boxed s.box p.Model.lb.(j)) cols;
    ub = Array.map (fun j -> boxed s.box p.Model.ub.(j)) cols;
    obj = Array.make nbv 0.0;
    row_sense = Array.map (fun i -> p.Model.row_sense.(i)) rows;
    row_rhs = Array.map (fun i -> rhs.(i)) rows;
    integer = Array.make nbv false;
    var_names = Array.map (fun j -> p.Model.var_names.(j)) cols;
    row_names = Array.map (fun i -> p.Model.row_names.(i)) rows;
  }

(* One accepted proposal: an extreme point of its block's polytope,
   entering the master as a [0,1]-bounded column. *)
type proposal = {
  p_block : int;  (* compact block index *)
  p_x : float array;  (* block-local primal values *)
  p_cost : float;  (* c^T x over the block's columns *)
  p_col : (int * float) list;  (* master-row index -> aggregated coef *)
}

(* The master has a fixed row space (coupling rows then one convexity
   row per block) and a growing column space: shared columns, one big-M
   artificial per row signed to absorb any residual, then the proposals
   in acceptance order.  Rebuilt per iteration (the nnz is small). *)
let master_problem (p : Model.problem) ~rhs (sp : split) ~big_m proposals :
    Model.problem * int * int =
  let nm = Array.length sp.mrows and nb = Array.length sp.blocks in
  let nr = nm + nb in
  let coo = Sparse.Coo.create ~capacity:(8 * max 1 nr) () in
  let lb = ref [] and ub = ref [] and obj = ref [] and names = ref [] in
  let ncols = ref 0 in
  let push ~l ~u ~c name =
    lb := l :: !lb;
    ub := u :: !ub;
    obj := c :: !obj;
    names := name :: !names;
    incr ncols;
    !ncols - 1
  in
  Array.iter
    (fun j ->
      let col =
        push ~l:p.Model.lb.(j) ~u:p.Model.ub.(j) ~c:p.Model.obj.(j)
          p.Model.var_names.(j)
      in
      Sparse.Csc.iter_col p.Model.a j (fun i v ->
          Sparse.Coo.add coo sp.m_of_row.(i) col v))
    sp.shared;
  let n_shared = !ncols in
  let art sign row =
    let col =
      push ~l:0.0 ~u:Float.infinity ~c:big_m
        (Printf.sprintf "art%d%s" row (if sign > 0.0 then "p" else "n"))
    in
    Sparse.Coo.add coo row col sign
  in
  Array.iteri
    (fun t i ->
      match p.Model.row_sense.(i) with
      | Model.Ge -> art 1.0 t
      | Model.Le -> art (-1.0) t
      | Model.Eq ->
          art 1.0 t;
          art (-1.0) t)
    sp.mrows;
  for b = 0 to nb - 1 do
    art 1.0 (nm + b)
  done;
  let n_fixed = !ncols in
  List.iteri
    (fun k prop ->
      let col = push ~l:0.0 ~u:1.0 ~c:prop.p_cost (Printf.sprintf "dw%d" k) in
      List.iter (fun (t, v) -> Sparse.Coo.add coo t col v) prop.p_col;
      Sparse.Coo.add coo (nm + prop.p_block) col 1.0)
    proposals;
  let nv = !ncols in
  let row_sense =
    Array.init nr (fun t ->
        if t < nm then p.Model.row_sense.(sp.mrows.(t)) else Model.Eq)
  in
  let row_rhs = Array.init nr (fun t -> if t < nm then rhs.(sp.mrows.(t)) else 1.0) in
  let row_names =
    Array.init nr (fun t ->
        if t < nm then p.Model.row_names.(sp.mrows.(t))
        else Printf.sprintf "convex%d" (t - nm))
  in
  ( {
      Model.nv;
      nr;
      a = Sparse.Csc.of_coo ~nrows:nr ~ncols:nv coo;
      lb = Array.of_list (List.rev !lb);
      ub = Array.of_list (List.rev !ub);
      obj = Array.of_list (List.rev !obj);
      row_sense;
      row_rhs;
      integer = Array.make nv false;
      var_names = Array.of_list (List.rev !names);
      row_names;
    },
    n_shared,
    n_fixed )

(* Map the previous master basis onto a master extended by [added] new
   trailing structural columns: statuses of existing columns carry over,
   new columns start nonbasic at their lower bound, and slack indices
   (>= old nv) shift by [added]. *)
let extend_basis (b : Revised.basis) ~old_nv ~added : Revised.basis =
  let nstat = Array.length b.Revised.vstat in
  let vstat = Array.make (nstat + added) 'l' in
  Array.blit b.Revised.vstat 0 vstat 0 old_nv;
  Array.blit b.Revised.vstat old_nv vstat (old_nv + added) (nstat - old_nv);
  let basic =
    Array.map
      (fun c -> if c >= old_nv then c + added else c)
      b.Revised.basic
  in
  { Revised.basic; vstat }

(* ------------------------------------------------------------------ *)
(* The decomposition loop                                              *)
(* ------------------------------------------------------------------ *)

let max_dw_iterations = 200

(* Solve by column generation; [None] means "let the monolithic solver
   handle it" (not necessarily an error: infeasible instances and
   degenerate-unconstrained guarded instances are reported canonically
   by the monolithic path). *)
let try_dw ?max_iter ?feas_tol ?opt_tol ~rhs ?analysis ?bands
    (s : structure) (p : Model.problem) : Revised.result option =
  let tol = Option.value opt_tol ~default:1e-9 in
  (* Column generation stops at a loose relative Lagrangian gap: the
     crossover ends with an exact warm solve of the original problem,
     which closes the residual gap at full precision (and certifies the
     result), so grinding the tail of the gap out of the master — the
     most iteration-hungry phase of column generation — buys nothing. *)
  let gap_tol = Float.max tol (dw_gap ()) in
  let sp = split_problem s p in
  let nb = Array.length sp.blocks in
  if nb < 2 || Array.length sp.mrows = 0 then None
  else begin
    let pool = Putil.Pool.get_default () in
    let t_setup = Unix.gettimeofday () in
    (* per-block pricing state: problem, symbolic analysis, warm basis *)
    let bprobs =
      Array.init nb (fun k ->
          block_problem s p ~rhs sp.blocks.(k) sp.block_rows.(k))
    in
    let banals = Array.map Revised.make_analysis bprobs in
    Log.debug (fun m ->
        m "setup: %d components in %.3fs" nb
          (Unix.gettimeofday () -. t_setup));
    let bbases = Array.make nb None in
    let max_obj =
      Array.fold_left (fun m c -> Float.max m (Float.abs c)) 0.0 p.Model.obj
    in
    let big_m = ref (1e3 *. (1.0 +. max_obj)) in
    let escalations = ref 0 in
    let proposals = ref [] (* newest first *) in
    let master_basis = ref None and master_nv = ref 0 in
    (* last optimal master solution, with the exact proposal list the
       master was built from, for the crossover *)
    let last_x = ref [||] and last_n_fixed = ref 0 and last_props = ref [] in
    let price_obj k (y : float array) =
      Array.map
        (fun j ->
          let c = ref p.Model.obj.(j) in
          Sparse.Csc.iter_col p.Model.a j (fun i v ->
              let t = sp.m_of_row.(i) in
              if t >= 0 then c := !c -. (y.(t) *. v));
          !c)
        sp.blocks.(k)
    in
    let price_block k (y : float array) =
      Stats.note_dw_subproblem ();
      let bp = bprobs.(k) in
      let obj = price_obj k y in
      let r =
        Revised.solve ?max_iter ?feas_tol ?opt_tol ?warm:bbases.(k)
          ~warm_primal:true ~analysis:banals.(k)
          { bp with Model.obj }
      in
      bbases.(k) <- r.Revised.basis;
      r
    in
    (* Pricing fan-out: one task per contiguous chunk of blocks, one
       chunk per domain of the pool.  A single pricing solve is far too
       small to pay for a task of its own.  Each block keeps its own warm
       basis, so the chunking never changes a result, and chunks are
       concatenated in block order. *)
    let price_round (y : float array) =
      let chunks = min nb (Putil.Pool.parallelism pool) in
      List.init chunks (fun c -> (c * nb / chunks, (c + 1) * nb / chunks))
      |> Putil.Pool.parallel_map pool (fun (lo, hi) ->
             Array.init (hi - lo) (fun i -> price_block (lo + i) y))
      |> Array.concat
    in
    let aggregate k (x : float array) : (int * float) list =
      let nm = Array.length sp.mrows in
      let acc = Array.make nm 0.0 and touched = ref [] in
      Array.iteri
        (fun jt j ->
          if x.(jt) <> 0.0 then
            Sparse.Csc.iter_col p.Model.a j (fun i v ->
                let t = sp.m_of_row.(i) in
                if t >= 0 then begin
                  if acc.(t) = 0.0 then touched := t :: !touched;
                  acc.(t) <- acc.(t) +. (v *. x.(jt))
                end))
        sp.blocks.(k);
      List.sort compare !touched
      |> List.filter_map (fun t ->
             if acc.(t) = 0.0 then None else Some (t, acc.(t)))
    in
    let duplicate k (x : float array) =
      List.exists
        (fun pr ->
          pr.p_block = k
          && Array.for_all2 (fun a b -> Float.equal a b) pr.p_x x)
        !proposals
    in
    let mk_proposal k (x : float array) =
      {
        p_block = k;
        p_x = Array.copy x;
        p_cost =
          (let c = ref 0.0 in
           Array.iteri
             (fun jt j -> c := !c +. (p.Model.obj.(j) *. x.(jt)))
             sp.blocks.(k);
           !c);
        p_col = aggregate k x;
      }
    in
    (* Sign-correct epsilon duals on every coupling row (Ge rows price
       positive, Le negative — the sign an active row's dual takes at
       optimum), used to seed the first pricing round so the first
       master starts from proposals that already pull toward satisfying
       the coupling rows.  Zero duals would leave components whose
       columns carry no objective cost (the event LP's configuration
       weights under the makespan objective) to tie-break arbitrarily,
       and the master then grinds those arbitrary vertices out one
       critical chain at a time. *)
    let eps = 1e-3 *. (1.0 +. max_obj) in
    let y0 =
      Array.init
        (max 1 (Array.length sp.mrows))
        (fun t ->
          if t >= Array.length sp.mrows then 0.0
          else
            match p.Model.row_sense.(sp.mrows.(t)) with
            | Model.Ge -> eps
            | Model.Le -> -.eps
            | Model.Eq -> 0.0)
    in
    let rec iterate it =
      if it >= max_dw_iterations then finish ()
      else begin
        Stats.note_dw_iteration ();
        let props_now = List.rev !proposals in
        let mp, n_shared, n_fixed =
          master_problem p ~rhs sp ~big_m:!big_m props_now
        in
        let warm =
          match !master_basis with
          | Some b when mp.Model.nv > !master_nv ->
              Some (extend_basis b ~old_nv:!master_nv ~added:(mp.Model.nv - !master_nv))
          | other -> other
        in
        Stats.note_dw_master ();
        let t_m = Unix.gettimeofday () in
        let mr =
          Revised.solve ?max_iter ?feas_tol ?opt_tol ?warm ~warm_primal:true mp
        in
        Log.debug (fun m ->
            m "it %d: master %.3fs (%d cols)" it
              (Unix.gettimeofday () -. t_m)
              mp.Model.nv);
        if mr.Revised.status <> Revised.Optimal then begin
          Log.debug (fun m ->
              m "master %a at iteration %d; falling back" Revised.pp_status
                mr.Revised.status it);
          None
        end
        else begin
          master_basis := mr.Revised.basis;
          master_nv := mp.Model.nv;
          last_x := mr.Revised.x;
          last_n_fixed := n_fixed;
          last_props := props_now;
          let nm = Array.length sp.mrows in
          let art_mass = ref 0.0 in
          for j = n_shared to n_fixed - 1 do
            art_mass := !art_mass +. mr.Revised.x.(j)
          done;
          let y = mr.Revised.y in
          let prices = price_round y in
          if
            Array.exists
              (fun r -> r.Revised.status <> Revised.Optimal)
              prices
          then begin
            Log.debug (fun m ->
                m "subproblem not optimal at iteration %d; falling back" it);
            None
          end
          else begin
            (* Lagrangian bound: master objective plus the sum of the
               negative pricing reduced costs bounds the true optimum
               from below; a closed gap is the convergence certificate
               (robust to duplicate-vertex stalls). *)
            let gap = ref 0.0 in
            let fresh = ref [] in
            Array.iteri
              (fun k r ->
                let sigma = y.(nm + k) in
                let rc = r.Revised.objective -. sigma in
                if rc < 0.0 then gap := !gap -. rc;
                if
                  rc < -.tol *. (1.0 +. Float.abs sigma)
                  && not (duplicate k r.Revised.x)
                then fresh := mk_proposal k r.Revised.x :: !fresh)
              prices;
            Log.debug (fun m ->
                m "it %d: master obj %.12g, gap %.3g, art %.3g, fresh %d, \
                   props %d"
                  it mr.Revised.objective !gap !art_mass
                  (List.length !fresh)
                  (List.length !proposals));
            if
              !gap <= gap_tol *. (1.0 +. Float.abs mr.Revised.objective)
              && !art_mass
                 <= 1e-7 *. (1.0 +. Float.abs mr.Revised.objective)
            then finish ()
            else
            match !fresh with
            | [] ->
                if !art_mass > 1e-7 *. (1.0 +. Float.abs mr.Revised.objective)
                then
                  if !escalations < 2 then begin
                    (* converged onto artificials: the penalty was too
                       small to price them out; raise it and continue *)
                    incr escalations;
                    big_m := !big_m *. 1e3;
                    Log.debug (fun m ->
                        m "artificial mass %.3g at convergence; big-M -> %.3g"
                          !art_mass !big_m);
                    iterate (it + 1)
                  end
                  else None
                else finish ()
            | f -> continue_with it mr mp n_fixed props_now f
          end
        end
      end
    and continue_with it mr mp n_fixed props_now f =
                (* Column-pool purge: a nonbasic proposal the master
                   prices clearly out of the optimum is dropped (pricing
                   regenerates it if it is ever wanted again), keeping
                   the master — and every devex pricing pass inside it —
                   small.  The stored warm basis is compacted to the
                   surviving columns; only nonbasic columns are removed,
                   so the basis itself carries over intact. *)
                (match mr.Revised.basis with
                | Some mb when 2 * List.length props_now > 3 * nb ->
                    let purge_tol = 1e-4 *. (1.0 +. max_obj) in
                    let keep =
                      Array.make (mp.Model.nv - n_fixed) true
                    in
                    List.iteri
                      (fun k _ ->
                        let j = n_fixed + k in
                        if
                          mb.Revised.vstat.(j) <> 'b'
                          && mr.Revised.dj.(j) > purge_tol
                        then keep.(k) <- false)
                      props_now;
                    if Array.exists not keep then begin
                      let kept =
                        List.filteri (fun k _ -> keep.(k)) props_now
                      in
                      (* compact the basis: structural indices shift by
                         the purged count before them, slacks by the
                         total purged count *)
                      let removed = ref 0 in
                      let new_of_old = Array.make mp.Model.nv (-1) in
                      for j = 0 to mp.Model.nv - 1 do
                        if j < n_fixed || keep.(j - n_fixed) then
                          new_of_old.(j) <- j - !removed
                        else incr removed
                      done;
                      let new_nv = mp.Model.nv - !removed in
                      let nstat = Array.length mb.Revised.vstat in
                      let vstat =
                        Array.make (nstat - !removed) 'l'
                      in
                      for j = 0 to mp.Model.nv - 1 do
                        if new_of_old.(j) >= 0 then
                          vstat.(new_of_old.(j)) <- mb.Revised.vstat.(j)
                      done;
                      Array.blit mb.Revised.vstat mp.Model.nv vstat new_nv
                        (nstat - mp.Model.nv);
                      let basic =
                        Array.map
                          (fun c ->
                            if c >= mp.Model.nv then c - !removed
                            else new_of_old.(c))
                          mb.Revised.basic
                      in
                      proposals := List.rev kept;
                      master_basis := Some { Revised.basic; vstat };
                      master_nv := new_nv;
                      Log.debug (fun m ->
                          m "it %d: purged %d of %d proposals" it !removed
                            (List.length props_now))
                    end
                | _ -> ());
                (* newest-first accumulator; master construction re-sorts
                   into acceptance order.  Within one iteration proposals
                   are merged in block order. *)
                List.iter (fun pr -> proposals := pr :: !proposals) (List.rev f);
                iterate (it + 1)
    (* Crossover: pin every column sitting at a bound in the aggregated
       primal point, solve the pinned LP cold to a basis, normalize the
       pinned statuses against the true bounds, and certify with one
       warm solve of the original problem. *)
    and finish () =
      if Array.length !last_x = 0 then None
      else begin
        let mx = !last_x and n_fixed = !last_n_fixed in
        let x_hat = Array.make p.Model.nv 0.0 in
        Array.iteri (fun t j -> x_hat.(j) <- mx.(t)) sp.shared;
        List.iteri
          (fun k prop ->
            let lambda = mx.(n_fixed + k) in
            if lambda <> 0.0 then
              Array.iteri
                (fun jt j -> x_hat.(j) <- x_hat.(j) +. (lambda *. prop.p_x.(jt)))
                sp.blocks.(prop.p_block))
          !last_props;
        let lb' = Array.copy p.Model.lb and ub' = Array.copy p.Model.ub in
        let ptol = 1e-7 in
        for j = 0 to p.Model.nv - 1 do
          let l = p.Model.lb.(j) and u = p.Model.ub.(j) in
          if
            Float.is_finite l
            && Float.abs (x_hat.(j) -. l) <= ptol *. (1.0 +. Float.abs l)
          then ub'.(j) <- l
          else if
            Float.is_finite u
            && Float.abs (x_hat.(j) -. u) <= ptol *. (1.0 +. Float.abs u)
          then lb'.(j) <- u
        done;
        let t_r = Unix.gettimeofday () in
        let restricted =
          Revised.solve ?max_iter ?feas_tol ?opt_tol ~lb:lb' ~ub:ub' ~rhs
            ?analysis ?bands p
        in
        Log.debug (fun m ->
            m "crossover: restricted %.3fs (%d pivots)"
              (Unix.gettimeofday () -. t_r)
              restricted.Revised.iterations);
        match (restricted.Revised.status, restricted.Revised.basis) with
        | Revised.Optimal, Some rb ->
            (* a column pinned at its true upper bound must carry status
               'u' before the true-bound warm repair *)
            let vstat = Array.copy rb.Revised.vstat in
            for j = 0 to p.Model.nv - 1 do
              if vstat.(j) <> 'b' && lb'.(j) = ub'.(j) then
                if
                  lb'.(j) = p.Model.ub.(j) && p.Model.lb.(j) <> p.Model.ub.(j)
                then vstat.(j) <- 'u'
                else if lb'.(j) = p.Model.lb.(j) then vstat.(j) <- 'l'
            done;
            let warm = { rb with Revised.vstat } in
            let t_f = Unix.gettimeofday () in
            let final =
              Revised.solve ?max_iter ?feas_tol ?opt_tol ~rhs ~warm ?analysis
                ?bands p
            in
            Log.debug (fun m ->
                m "crossover: certify %.3fs (%d pivots)"
                  (Unix.gettimeofday () -. t_f)
                  final.Revised.iterations);
            if final.Revised.status <> Revised.Optimal then None
            else if
              Array.length s.guard_rows > 0
              && Array.for_all
                   (fun i -> Float.abs final.Revised.y.(i) <= 1e-9)
                   s.guard_rows
            then begin
              (* coupling constraints all slack: the optimum is massively
                 degenerate and vertex selection must match the
                 monolithic path *)
              Log.debug (fun m ->
                  m "guard rows slack; deferring to monolithic solver");
              None
            end
            else Some final
        | _ -> None
      end
    in
    (* Seed: one proposal per component, priced against the epsilon
       duals, so the first master starts from proposals that already
       pull toward satisfying the coupling rows. *)
    let seeds = price_round y0 in
    if
      Array.exists (fun r -> r.Revised.status <> Revised.Optimal) seeds
    then begin
      Log.debug (fun m -> m "seeding subproblem not optimal; falling back");
      None
    end
    else begin
      Array.iteri
        (fun k r ->
          if not (duplicate k r.Revised.x) then
            proposals := mk_proposal k r.Revised.x :: !proposals)
        seeds;
      iterate 0
    end
  end

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let solve ?max_iter ?feas_tol ?opt_tol ?lb ?ub ?rhs ?warm ?analysis ?bands
    ?structure (p : Model.problem) : Revised.result =
  let mono () =
    Revised.solve ?max_iter ?feas_tol ?opt_tol ?lb ?ub ?rhs ?warm ?analysis
      ?bands p
  in
  match (structure, warm, lb, ub) with
  | Some s, None, None, None when engaged s p -> begin
      let rhs_eff =
        match rhs with Some r -> r | None -> p.Model.row_rhs
      in
      match
        try_dw ?max_iter ?feas_tol ?opt_tol ~rhs:rhs_eff ?analysis ?bands s p
      with
      | Some r -> r
      | None ->
          Stats.note_dw_crossover_fallback ();
          mono ()
      | exception e ->
          (* decomposition must never be less robust than the monolithic
             path; count and retry monolithically *)
          Log.warn (fun m ->
              m "decomposition raised %s; re-solving monolithically"
                (Printexc.to_string e));
          Stats.note_dw_crossover_fallback ();
          mono ()
    end
  | _ -> mono ()
