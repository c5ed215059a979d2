(** LP presolve: standard reductions applied before the simplex.

    Implemented reductions (applied to fixpoint):
    - {b fixed variables} ([lb = ub]): substituted into every row;
    - {b empty rows}: checked for trivial consistency and dropped;
    - {b singleton rows} (one structural variable): converted into a
      bound tightening and dropped;
    - {b doubleton equality rows} ([a x + b y = c]): [x] is eliminated by
      the substitution [x = (c - b y) / a], with its bounds transferred
      onto [y] — this is the reduction that collapses the event LP's
      equality-tied vertex pairs (equation (13) rows);
    - {b empty columns}: moved to their best bound by objective sign.

    Each pass costs O(nnz + rows + cols): the fixed-column and row scans
    visit every column and row once, and the empty-column scan marks the
    columns of the live rows in one sweep.  Eliminating a column costs,
    on top, the lengths of the rows it sits in (its terms are filtered
    out of each).

    The reduced problem is solved with {!Revised} and the solution mapped
    back to the original variable space. *)

(* Per-variable disposition after presolve. *)
type vstate =
  | Kept
  | Fixed of float
  | Subst of { of_var : int; scale : float; offset : float }
      (** var = offset + scale * of_var *)

type reduction = {
  problem : Model.problem;  (** the reduced problem *)
  keep_vars : int array;  (** reduced column -> original column *)
  state : vstate array;  (** per original column *)
  kept_rows : int array;  (** reduced row -> original row *)
  dropped_rows : int;
  dropped_cols : int;
  subst_order : int list;
      (** substituted variables, oldest first; restore applies them
          newest-first *)
  row_scale : float array;
      (** per reduced row: the equilibration factor its scaled row was
          multiplied by (all 1.0 when scaling is off) *)
  col_scale : float array;
      (** per reduced column: original x = col_scale * scaled x *)
}

type outcome = Reduced of reduction | Proven_infeasible

let tol = 1e-9

(* Row/column geometric-mean equilibration (POWERLIM_SCALE=0 disables).
   Scale factors are rounded to powers of two, so applying and removing
   them only shifts exponents: the solution reported in original units
   is bit-for-bit the unscaling of the solved point, and RHS deltas
   patched through [solve_reduction] distribute exactly. *)
let scale_enabled () = Putil.Env.flag "POWERLIM_SCALE" ~default:true

(* Alternate row and column passes on the log2 magnitudes until every
   rounded geometric mean is 2^0 (or the pass budget runs out); each
   side's factor is the power of two nearest the reciprocal mean of its
   current scaled magnitudes.  Integer columns keep factor 1 — scaling
   them would re-grid their domain. *)
let equilibrate (p : Model.problem) : float array * float array =
  let nr = p.Model.nr and nv = p.Model.nv in
  let a = p.Model.a in
  let colptr = a.Sparse.Csc.colptr
  and rowind = a.Sparse.Csc.rowind
  and values = a.Sparse.Csc.values in
  let nnz = colptr.(nv) in
  let lg = Array.make nnz 0.0 in
  for k = 0 to nnz - 1 do
    let v = Float.abs values.(k) in
    lg.(k) <- (if v > 0.0 then Float.log2 v else 0.0)
  done;
  let er = Array.make nr 0 and ec = Array.make nv 0 in
  let rsum = Array.make nr 0.0 and rcnt = Array.make nr 0 in
  let clamp e = if e > 512 then 512 else if e < -512 then -512 else e in
  let changed = ref true in
  let passes = ref 0 in
  while !changed && !passes < 10 do
    incr passes;
    Stats.note_scale_pass ();
    changed := false;
    Array.fill rsum 0 nr 0.0;
    Array.fill rcnt 0 nr 0;
    for j = 0 to nv - 1 do
      for k = colptr.(j) to colptr.(j + 1) - 1 do
        if values.(k) <> 0.0 then begin
          let i = rowind.(k) in
          rsum.(i) <- rsum.(i) +. lg.(k) +. Float.of_int (ec.(j) + er.(i));
          rcnt.(i) <- rcnt.(i) + 1
        end
      done
    done;
    for i = 0 to nr - 1 do
      if rcnt.(i) > 0 then begin
        let adj =
          -Float.to_int (Float.round (rsum.(i) /. Float.of_int rcnt.(i)))
        in
        if adj <> 0 then begin
          er.(i) <- clamp (er.(i) + adj);
          changed := true
        end
      end
    done;
    for j = 0 to nv - 1 do
      if not p.Model.integer.(j) then begin
        let s = ref 0.0 and c = ref 0 in
        for k = colptr.(j) to colptr.(j + 1) - 1 do
          if values.(k) <> 0.0 then begin
            s := !s +. lg.(k) +. Float.of_int (ec.(j) + er.(rowind.(k)));
            incr c
          end
        done;
        if !c > 0 then begin
          let adj = -Float.to_int (Float.round (!s /. Float.of_int !c)) in
          if adj <> 0 then begin
            ec.(j) <- clamp (ec.(j) + adj);
            changed := true
          end
        end
      end
    done
  done;
  ( Array.map (fun e -> Float.ldexp 1.0 e) er,
    Array.map (fun e -> Float.ldexp 1.0 e) ec )

(* The scaled problem shares the matrix structure; only values, bounds,
   objective and RHS change.  With x = C x': A' = R A C, b' = R b,
   obj' = C obj, bounds' = bounds / C. *)
let apply_scaling (p : Model.problem) (rs : float array) (cs : float array) :
    Model.problem =
  let a = p.Model.a in
  let nv = p.Model.nv in
  let colptr = a.Sparse.Csc.colptr in
  let values = Array.copy a.Sparse.Csc.values in
  for j = 0 to nv - 1 do
    for k = colptr.(j) to colptr.(j + 1) - 1 do
      values.(k) <- values.(k) *. rs.(a.Sparse.Csc.rowind.(k)) *. cs.(j)
    done
  done;
  {
    p with
    Model.a = { a with Sparse.Csc.values };
    lb = Array.mapi (fun j v -> v /. cs.(j)) p.Model.lb;
    ub = Array.mapi (fun j v -> v /. cs.(j)) p.Model.ub;
    obj = Array.mapi (fun j v -> v *. cs.(j)) p.Model.obj;
    row_rhs = Array.mapi (fun i v -> v *. rs.(i)) p.Model.row_rhs;
  }

let scale (p : Model.problem) =
  if scale_enabled () && p.Model.nr > 0 && p.Model.nv > 0 then begin
    let row_scale, col_scale = equilibrate p in
    (apply_scaling p row_scale col_scale, row_scale, col_scale)
  end
  else (p, Array.make p.Model.nr 1.0, Array.make p.Model.nv 1.0)

(* Tighten [lo, hi] with a new bound pair; returns None on conflict. *)
let tighten (lo, hi) lo' hi' =
  let lo = max lo lo' and hi = min hi hi' in
  if lo > hi +. 1e-7 then None else Some (lo, min hi (max lo hi))

let reduce_impl (p : Model.problem) : outcome =
  let nv = p.Model.nv and nr = p.Model.nr in
  let lo = Array.copy p.Model.lb and hi = Array.copy p.Model.ub in
  let obj = Array.copy p.Model.obj in
  let row_alive = Array.make nr true in
  let infeasible = ref false in
  (* Row-oriented working copy of the matrix. *)
  let rows : (int * float) list array = Array.make nr [] in
  let col_rows : int list array = Array.make nv [] in
  for j = 0 to nv - 1 do
    Sparse.Csc.iter_col p.Model.a j (fun i v ->
        rows.(i) <- (j, v) :: rows.(i);
        col_rows.(j) <- i :: col_rows.(j))
  done;
  let rhs = Array.copy p.Model.row_rhs in
  let state = Array.make nv Kept in
  let subst_order = ref [] in
  let gone j = state.(j) <> Kept in
  (* Remove variable [j] from row [i], returning its (merged) coefficient. *)
  let take_out i j =
    let coeff = ref 0.0 in
    rows.(i) <-
      List.filter
        (fun (j', c) ->
          if j' = j then begin
            coeff := !coeff +. c;
            false
          end
          else true)
        rows.(i);
    !coeff
  in
  let merge_term i j c =
    if c <> 0.0 then begin
      let existing = take_out i j in
      let c = c +. existing in
      if Float.abs c > 1e-13 then begin
        rows.(i) <- (j, c) :: rows.(i);
        if not (List.mem i col_rows.(j)) then col_rows.(j) <- i :: col_rows.(j)
      end
    end
  in
  let fix j v =
    if not (gone j) then begin
      state.(j) <- Fixed v;
      List.iter
        (fun i ->
          if row_alive.(i) then begin
            let coeff = take_out i j in
            rhs.(i) <- rhs.(i) -. (coeff *. v)
          end)
        col_rows.(j)
    end
  in
  (* Eliminate [x] via [x = offset + scale * y]. *)
  let substitute x ~y ~scale ~offset =
    state.(x) <- Subst { of_var = y; scale; offset };
    subst_order := x :: !subst_order;
    (* transfer x's bounds onto y *)
    let bl, bh =
      if scale > 0.0 then
        ((lo.(x) -. offset) /. scale, (hi.(x) -. offset) /. scale)
      else ((hi.(x) -. offset) /. scale, (lo.(x) -. offset) /. scale)
    in
    (match tighten (lo.(y), hi.(y)) bl bh with
    | None -> infeasible := true
    | Some (l, h) ->
        lo.(y) <- l;
        hi.(y) <- h);
    (* rewrite every row containing x *)
    List.iter
      (fun i ->
        if row_alive.(i) then begin
          let coeff = take_out i x in
          if coeff <> 0.0 then begin
            rhs.(i) <- rhs.(i) -. (coeff *. offset);
            merge_term i y (coeff *. scale)
          end
        end)
      col_rows.(x);
    (* objective: obj_x * x = obj_x * offset (constant) + obj_x*scale * y *)
    obj.(y) <- obj.(y) +. (obj.(x) *. scale);
    obj.(x) <- 0.0
  in
  let present = Array.make nv false in
  let changed = ref true in
  while !changed && not !infeasible do
    changed := false;
    (* fixed variables *)
    for j = 0 to nv - 1 do
      if (not (gone j)) && hi.(j) -. lo.(j) <= tol then begin
        fix j lo.(j);
        changed := true
      end
    done;
    (* empty / singleton / doubleton-equality rows *)
    for i = 0 to nr - 1 do
      if row_alive.(i) && not !infeasible then begin
        match rows.(i) with
        | [] ->
            let ok =
              match p.Model.row_sense.(i) with
              | Model.Le -> rhs.(i) >= -.1e-7
              | Model.Ge -> rhs.(i) <= 1e-7
              | Model.Eq -> Float.abs rhs.(i) <= 1e-7
            in
            if not ok then infeasible := true;
            row_alive.(i) <- false;
            changed := true
        | [ (j, c) ] when not (gone j) ->
            let b = rhs.(i) /. c in
            let bounds =
              match (p.Model.row_sense.(i), c > 0.0) with
              | Model.Le, true | Model.Ge, false -> (Float.neg_infinity, b)
              | Model.Ge, true | Model.Le, false -> (b, Float.infinity)
              | Model.Eq, _ -> (b, b)
            in
            (match tighten (lo.(j), hi.(j)) (fst bounds) (snd bounds) with
            | None -> infeasible := true
            | Some (l, h) ->
                lo.(j) <- l;
                hi.(j) <- h);
            row_alive.(i) <- false;
            changed := true
        | [ (x, a); (y, b) ]
          when p.Model.row_sense.(i) = Model.Eq
               && (not (gone x))
               && (not (gone y))
               && (not p.Model.integer.(x))
               && not p.Model.integer.(y) ->
            (* a x + b y = c: eliminate the larger-coefficient variable *)
            let x, a, y, b =
              if Float.abs a >= Float.abs b then (x, a, y, b) else (y, b, x, a)
            in
            if Float.abs a > 1e-9 then begin
              row_alive.(i) <- false;
              substitute x ~y ~scale:(-.b /. a) ~offset:(rhs.(i) /. a);
              changed := true
            end
        | _ -> ()
      end
    done;
    (* empty columns: fixing one column only takes it out of its own
       rows, so which columns still have a live term is read once *)
    Array.fill present 0 nv false;
    for i = 0 to nr - 1 do
      if row_alive.(i) then
        List.iter (fun (j, _) -> present.(j) <- true) rows.(i)
    done;
    for j = 0 to nv - 1 do
      if (not (gone j)) && not p.Model.integer.(j) then begin
        if not present.(j) then begin
          let c = obj.(j) in
          let v =
            if c > 0.0 then lo.(j)
            else if c < 0.0 then hi.(j)
            else if Float.is_finite lo.(j) then lo.(j)
            else min hi.(j) 0.0
          in
          if Float.is_finite v then begin
            fix j v;
            changed := true
          end
          (* otherwise: unbounded direction; left for the simplex *)
        end
      end
    done
  done;
  if !infeasible then Proven_infeasible
  else begin
    let keep_vars =
      Array.of_list
        (List.filter (fun j -> state.(j) = Kept) (List.init nv Fun.id))
    in
    let new_index = Array.make nv (-1) in
    Array.iteri (fun k j -> new_index.(j) <- k) keep_vars;
    let kept_rows =
      Array.of_list (List.filter (fun i -> row_alive.(i)) (List.init nr Fun.id))
    in
    (* Freeze the reduced problem directly, as [Model.compile] would:
       building it through [Model]'s lists costs more than the whole
       fixpoint on the event LP. *)
    let coo = Sparse.Coo.create () in
    Array.iteri
      (fun r i ->
        List.iter (fun (j, c) -> Sparse.Coo.add coo r new_index.(j) c) rows.(i))
      kept_rows;
    let nkv = Array.length keep_vars and nkr = Array.length kept_rows in
    let a = Sparse.Csc.of_coo ~nrows:nkr ~ncols:nkv coo in
    let on_vars f = Array.map f keep_vars
    and on_rows f = Array.map f kept_rows in
    let problem =
      {
        Model.nv = nkv;
        nr = nkr;
        a;
        lb = on_vars (fun j -> lo.(j));
        ub = on_vars (fun j -> hi.(j));
        obj = on_vars (fun j -> obj.(j));
        integer = on_vars (fun j -> p.Model.integer.(j));
        var_names = on_vars (fun j -> p.Model.var_names.(j));
        row_sense = on_rows (fun i -> p.Model.row_sense.(i));
        row_rhs = on_rows (fun i -> rhs.(i));
        row_names = on_rows (fun i -> p.Model.row_names.(i));
      }
    in
    let problem, row_scale, col_scale = scale problem in
    Reduced
      {
        problem;
        keep_vars;
        state;
        kept_rows;
        dropped_rows = nr - Array.length kept_rows;
        dropped_cols = nv - Array.length keep_vars;
        subst_order = List.rev !subst_order;
        row_scale;
        col_scale;
      }
  end

(** Presolve [p] to fixpoint, then equilibrate the reduced problem. *)
let reduce (p : Model.problem) : outcome =
  Putil.Obs.span ~cat:"lp"
    ~args:
      [
        ("rows", string_of_int p.Model.nr); ("cols", string_of_int p.Model.nv);
      ]
    "presolve.reduce"
    (fun () -> reduce_impl p)

(** Map a reduced-space solution back to the original variables.  [x] is
    in the {e scaled} reduced space (as returned by solving
    [r.problem]); unscaling by a power of two is exact, so the original
    units come out bit-for-bit. *)
let restore (r : reduction) (x : float array) : float array =
  let nv = Array.length r.state in
  let out = Array.make nv Float.nan in
  Array.iteri (fun k j -> out.(j) <- r.col_scale.(k) *. x.(k)) r.keep_vars;
  Array.iteri
    (fun j st -> match st with Fixed v -> out.(j) <- v | _ -> ())
    r.state;
  (* Substitutions resolve newest-first: a variable's target was
     eliminated no later than itself, so its value is already known. *)
  List.iter
    (fun j ->
      match r.state.(j) with
      | Subst { of_var; scale; offset } ->
          out.(j) <- offset +. (scale *. out.(of_var))
      | Kept | Fixed _ -> assert false)
    (List.rev r.subst_order);
  out

(** Objective contribution of the variables presolve eliminated. *)
let fixed_objective (p : Model.problem) (r : reduction) =
  let s = ref 0.0 in
  Array.iteri
    (fun j st ->
      match st with
      | Fixed v -> s := !s +. (p.Model.obj.(j) *. v)
      | Kept | Subst _ -> ())
    r.state;
  !s

(** [solve_reduction p r] solves a previously computed reduction of [p]
    and maps the solution back to the original space — the re-solve path
    behind {!Core.Event_lp.solve_prepared}.

    [rhs] overrides the {e original-space} row RHS: each kept row's
    reduced RHS is patched by the delta against [p.row_rhs].  This is
    only sound when the changed rows were kept by the reduction and the
    RHS change cannot alter any reduction decision (the caller's
    responsibility; {!Core.Event_lp.prepare} checks that every power row
    survived).  [warm] is a {e reduced-space} basis from a previous
    [solve_reduction] on the same reduction; the returned result's
    [basis] field is likewise in the reduced space.  [analysis] is a
    {!Revised.make_analysis} of the {e reduced} problem, reusable
    because bound/RHS-only re-solves never change the reduced matrix. *)
let solve_reduction ?max_iter ?feas_tol ?opt_tol ?rhs ?warm ?analysis ?bands
    ?structure (p : Model.problem) (r : reduction) : Revised.result =
  (* Staircase bands arrive in the original space; surviving columns
     and rows keep their stage index. *)
  let red_bands =
    match bands with
    | None -> None
    | Some (cb, rb) ->
        Some
          ( Array.map (fun j -> cb.(j)) r.keep_vars,
            Array.map (fun i -> rb.(i)) r.kept_rows )
  in
  let red_rhs =
    match rhs with
    | None -> None
    | Some new_rhs ->
        let b = Array.copy r.problem.Model.row_rhs in
        Array.iteri
          (fun k i ->
            let delta = new_rhs.(i) -. p.Model.row_rhs.(i) in
            if delta <> 0.0 then b.(k) <- b.(k) +. (r.row_scale.(k) *. delta))
          r.kept_rows;
        Some b
  in
  (* Block structure maps through the reduction like the bands do:
     surviving columns keep their block tag, guard rows their index.
     The pricing box is widened by the worst column downscaling so a
     scaled column can still reach its original-unit bound. *)
  let red_structure =
    match structure with
    | None -> None
    | Some s ->
        let row_pos = Array.make p.Model.nr (-1) in
        Array.iteri (fun k i -> row_pos.(i) <- k) r.kept_rows;
        let inv_scale =
          Array.fold_left
            (fun m c -> Float.max m (1.0 /. c))
            1.0 r.col_scale
        in
        Some
          {
            s with
            Decomp.col_block =
              Array.map (fun j -> s.Decomp.col_block.(j)) r.keep_vars;
            box = s.Decomp.box *. inv_scale;
            guard_rows =
              Array.to_list s.Decomp.guard_rows
              |> List.filter_map (fun i ->
                     if row_pos.(i) >= 0 then Some row_pos.(i) else None)
              |> Array.of_list;
          }
  in
  let res =
    Decomp.solve ?max_iter ?feas_tol ?opt_tol ?rhs:red_rhs ?warm ?analysis
      ?bands:red_bands ?structure:red_structure r.problem
  in
  let x =
    match res.Revised.status with
    | Revised.Optimal -> restore r res.Revised.x
    | _ -> Array.make p.Model.nv 0.0
  in
  let y = Array.make p.Model.nr 0.0 in
  (* duals unscale opposite to the primal: y = R y', dj = dj' / C *)
  Array.iteri
    (fun k i -> y.(i) <- r.row_scale.(k) *. res.Revised.y.(k))
    r.kept_rows;
  let dj = Array.mapi (fun k d -> d /. r.col_scale.(k)) res.Revised.dj in
  {
    res with
    Revised.x;
    y;
    dj;
    objective =
      (match res.Revised.status with
      | Revised.Optimal -> Model.objective_value p x
      | _ -> res.Revised.objective);
  }

(** Presolve, solve with {!Revised}, and restore: a drop-in replacement
    for {!Revised.solve} on models without integer variables. *)
let solve ?max_iter ?feas_tol ?opt_tol (p : Model.problem) : Revised.result =
  match reduce p with
  | Proven_infeasible ->
      {
        Revised.status = Revised.Infeasible;
        objective = 0.0;
        x = Array.make p.Model.nv 0.0;
        y = Array.make p.Model.nr 0.0;
        dj = Array.copy p.Model.obj;
        iterations = 0;
        basis = None;
      }
  | Reduced r ->
      let res = solve_reduction ?max_iter ?feas_tol ?opt_tol p r in
      (* the embedded basis lives in the reduced space; a one-shot solve
         has no re-solve to feed it to, so drop it to avoid misuse *)
      { res with Revised.basis = None }
