(** Mixed-integer linear programming by LP-based branch and bound.

    Best-bound node selection, branching on the most fractional integer
    variable.  Each node solves its LP relaxation with {!Revised},
    warm-started from the parent node's optimal basis: a branching
    changes a single variable bound, so the parent basis stays dual
    feasible and the dual simplex typically reoptimizes in a handful of
    pivots (pass [~warm:false] to re-solve every node from scratch).
    This is ample for the small flow-ILP instances the paper solves
    (tens of binaries), which is also the regime the paper itself
    restricts the ILP to. *)

type status = Optimal | Infeasible | Unbounded | Node_limit

type result = {
  status : status;
  objective : float;
  x : float array;
  nodes : int;  (** number of branch-and-bound nodes solved *)
  relaxation : float;  (** objective of the root LP relaxation *)
}

type node = {
  n_lb : float array;
  n_ub : float array;
  depth : int;
  n_warm : Revised.basis option;
      (** parent node's optimal basis, used to warm-start this node's
          relaxation *)
}

let most_fractional (p : Model.problem) ?(int_tol = 1e-6) (x : float array) =
  let best = ref (-1) and best_frac = ref int_tol in
  for j = 0 to p.nv - 1 do
    if p.integer.(j) then begin
      let dist = Float.abs (x.(j) -. Float.round x.(j)) in
      (* distance from the nearest integer, in [0, 0.5] *)
      if dist > !best_frac then begin
        best := j;
        best_frac := dist
      end
    end
  done;
  !best

let integral (p : Model.problem) ?(int_tol = 1e-6) (x : float array) =
  most_fractional p ~int_tol x < 0

let snap (p : Model.problem) (x : float array) =
  Array.mapi
    (fun j v -> if p.integer.(j) then Float.round v else v)
    x

let solve ?pool ?(max_nodes = 100_000) ?(int_tol = 1e-6) ?(gap = 1e-9)
    ?(lp_max_iter = 0) ?(warm = true) (p : Model.problem) : result =
  let root =
    { n_lb = Array.copy p.lb; n_ub = Array.copy p.ub; depth = 0; n_warm = None }
  in
  let heap = Putil.Pqueue.create () in
  let incumbent = ref None in
  let incumbent_obj = ref Float.infinity in
  (* atomic: child relaxations may be solved on pool workers *)
  let nodes = Atomic.make 0 in
  let relaxation = ref Float.nan in
  let status = ref Infeasible in
  (* Every node relaxation shares [p]'s constraint matrix (nodes differ
     only in bounds), so one symbolic analysis serves the whole tree. *)
  let analysis = Revised.make_analysis p in
  let solve_node n =
    Atomic.incr nodes;
    Putil.Obs.span ~cat:"milp"
      ~args:[ ("depth", string_of_int n.depth) ]
      "node"
      (fun () ->
        Revised.solve ~max_iter:lp_max_iter ~lb:n.n_lb ~ub:n.n_ub ?warm:n.n_warm
          ~analysis p)
  in
  (* Both children of a branching are independent LP solves over the
     shared read-only problem (bounds are per-node copies); with a
     parallel pool they run concurrently.  Results are then folded in a
     fixed (down, up) order, so the heap insertion sequence -- and hence
     the whole search -- is identical to the sequential mode. *)
  let solve_children kids =
    match pool with
    | Some pl when Putil.Pool.parallelism pl > 1 ->
        Putil.Pool.parallel_map pl (fun c -> (c, solve_node c)) kids
    | _ -> List.map (fun c -> (c, solve_node c)) kids
  in
  let r0 = solve_node root in
  (match r0.Revised.status with
  | Revised.Unbounded -> status := Unbounded
  | Revised.Infeasible -> status := Infeasible
  | Revised.Iter_limit -> status := Node_limit
  | Revised.Optimal ->
      relaxation := r0.Revised.objective;
      Putil.Pqueue.push heap r0.Revised.objective (root, r0);
      let hit_limit = ref false in
      while (not (Putil.Pqueue.is_empty heap)) && not !hit_limit do
        if Atomic.get nodes > max_nodes then hit_limit := true
        else begin
          match Putil.Pqueue.pop heap with
          | None -> ()
          | Some (bound, (n, r)) ->
              if bound < !incumbent_obj -. gap then begin
                let x = r.Revised.x in
                match most_fractional p ~int_tol x with
                | -1 ->
                    (* integral: candidate incumbent *)
                    let xs = snap p x in
                    if Model.feasible ~tol:1e-5 p xs then begin
                      let o = Model.objective_value p xs in
                      if o < !incumbent_obj then begin
                        incumbent_obj := o;
                        incumbent := Some xs
                      end
                    end
                | j ->
                    let fl = Float.of_int (int_of_float (Float.floor x.(j))) in
                    let make_child lo_ hi_ =
                      if lo_ > hi_ then None
                      else begin
                        let c =
                          {
                            n_lb = Array.copy n.n_lb;
                            n_ub = Array.copy n.n_ub;
                            depth = n.depth + 1;
                            n_warm = (if warm then r.Revised.basis else None);
                          }
                        in
                        c.n_lb.(j) <- max c.n_lb.(j) lo_;
                        c.n_ub.(j) <- min c.n_ub.(j) hi_;
                        if c.n_lb.(j) <= c.n_ub.(j) then Some c else None
                      end
                    in
                    let kids =
                      List.filter_map Fun.id
                        [
                          make_child Float.neg_infinity fl;
                          make_child (fl +. 1.0) Float.infinity;
                        ]
                    in
                    List.iter
                      (fun (c, rc) ->
                        match rc.Revised.status with
                        | Revised.Optimal ->
                            if rc.Revised.objective < !incumbent_obj -. gap
                            then
                              Putil.Pqueue.push heap rc.Revised.objective (c, rc)
                        | Revised.Infeasible -> ()
                        | Revised.Unbounded | Revised.Iter_limit ->
                            hit_limit := true)
                      (solve_children kids)
              end
        end
      done;
      (* Any limit (node budget, or a child LP stopping on its iteration
         limit, which silently prunes that subtree) means the incumbent is
         not proven optimal: the search is inconclusive even when an
         incumbent exists. *)
      if !hit_limit then status := Node_limit
      else
        status := (match !incumbent with Some _ -> Optimal | None -> Infeasible));
  match !incumbent with
  | Some x ->
      {
        status = !status;
        objective = !incumbent_obj;
        x;
        nodes = Atomic.get nodes;
        relaxation = !relaxation;
      }
  | None ->
      {
        status = !status;
        objective = Float.nan;
        x = Array.make p.nv 0.0;
        nodes = Atomic.get nodes;
        relaxation = !relaxation;
      }
