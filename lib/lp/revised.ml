(** Bounded-variable revised simplex with sparse basis factorization.

    Standard computational form: every row gets a slack variable
    ([a.x + s = b] with slack bounds encoding the row sense), so the
    constraint matrix is [[A | I]].  When the all-slack starting point is
    out of bounds, artificial variables restore feasibility and a phase-1
    objective (minimize the sum of artificials) is solved first.

    The basis is factorized with {!Lu} and updated between
    refactorizations with product-form (eta) updates.  Pricing is
    Dantzig's rule with an automatic switch to Bland's rule after a run of
    degenerate pivots; the ratio test is a two-pass Harris test.

    Warm starts: [solve] returns the final basis (basic set + nonbasic
    statuses) and accepts it back via [?warm] on a later call whose
    bounds/RHS differ.  The warm basis is repaired against the new bounds
    and, because bound/RHS changes preserve dual feasibility, re-solved
    with a {e dual simplex} loop (largest-violation row choice, dual
    ratio test with bound flips).  Any irreparable situation — basis
    singular beyond {!Lu} repair, dual-infeasible nonbasic that cannot be
    flipped — falls back to the cold primal phase-1/2 path, so a warm
    call can never be less robust than a cold one. *)

type status = Optimal | Infeasible | Unbounded | Iter_limit

let pp_status ppf = function
  | Optimal -> Fmt.string ppf "optimal"
  | Infeasible -> Fmt.string ppf "infeasible"
  | Unbounded -> Fmt.string ppf "unbounded"
  | Iter_limit -> Fmt.string ppf "iteration-limit"

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

type eta = { er : int; eidx : int array; evals : float array; edia : float }

let neg_inf = Float.neg_infinity
let inf = Float.infinity

exception Warm_fallback

(* Runtime knobs, read once per solve so tests can flip them between
   calls.  All parsing/validation lives in [Putil.Env]: a malformed or
   out-of-range value warns once on stderr and falls back to the
   default. *)

(* Devex candidate-list pricing (POWERLIM_DEVEX=0 restores the classic
   Dantzig loop bit for bit). *)
let devex_enabled () = Putil.Env.flag "POWERLIM_DEVEX" ~default:true

(* Hypersparse FTRAN/BTRAN (POWERLIM_HYPERSPARSE=0 forces the dense
   kernels; simplexbench uses it to measure the pre-change baseline). *)
let hypersparse_enabled () = Putil.Env.flag "POWERLIM_HYPERSPARSE" ~default:true

(* Eta-file length that triggers refactorization (POWERLIM_ETA_LIMIT,
   default 64).  Only governs the legacy product-form path; in
   Forrest–Tomlin mode it survives as a deprecated alias for the
   update-count cap (see [ft_update_cap]). *)
let eta_limit () = Putil.Env.int ~lo:1 "POWERLIM_ETA_LIMIT" ~default:64

(* Forrest–Tomlin row-eta basis updates (POWERLIM_FT=0 restores the
   product-form column-eta file). *)
let ft_enabled () = Putil.Env.flag "POWERLIM_FT" ~default:true

(* Fill ratio — (L + dynamic U + row etas) / nonzeros at factorization —
   that triggers refactorization in Forrest–Tomlin mode
   (POWERLIM_REFACTOR, default 2.0; must exceed 1.0, the fill ratio of
   a fresh factorization). *)
let refactor_limit () =
  Putil.Env.float ~lo_exclusive:1.0 "POWERLIM_REFACTOR" ~default:2.0

(* Absolute update-count backstop between refactorizations in FT mode:
   the fill ratio is the primary trigger, the cap bounds numerical
   drift on fill-free update chains.  POWERLIM_ETA_LIMIT, when set,
   overrides it (deprecated alias; the first use reports both effective
   knobs on stderr). *)
let eta_limit_warned = ref false

let ft_update_cap ~refac_lim =
  if Putil.Env.explicit "POWERLIM_ETA_LIMIT" then begin
    let n = Putil.Env.int ~lo:1 "POWERLIM_ETA_LIMIT" ~default:256 in
    if not !eta_limit_warned then begin
      eta_limit_warned := true;
      Printf.eprintf
        "powerlim: POWERLIM_ETA_LIMIT is deprecated with Forrest-Tomlin \
         updates; treating it as the update-count cap (%d).  \
         Refactorization is primarily triggered by POWERLIM_REFACTOR \
         (fill ratio, currently %g).\n\
         %!"
        n refac_lim
    end;
    n
  end
  else 256

(* Below this row count the reachability probes, support bookkeeping
   and devex candidate machinery cost more than the dense classic loop
   they avoid, so small instances auto-select dense kernels and classic
   pricing (Forrest–Tomlin stays on — the update itself is cheaper than
   a product-form eta at any size).  Explicitly set
   POWERLIM_HYPERSPARSE / POWERLIM_DEVEX still win, so kernel tests and
   the benchmark baselines keep their meaning on small instances. *)
let small_lp_threshold () =
  Putil.Env.int ~lo:0 "POWERLIM_SMALL_LP" ~default:160

type analysis = { arows : Sparse.Csc.rows }
(** Symbolic analysis of a problem's constraint matrix, reusable across
    solves that change only bounds/RHS (cap sweeps, branch-and-bound
    children).  Immutable after construction, so one value may be shared
    freely across pool domains. *)

let make_analysis (p : Model.problem) = { arows = Sparse.Csc.rows p.a }

(* Trivial path for models without constraints. *)
let solve_unconstrained (p : Model.problem) lo hi =
  let x = Array.make p.nv 0.0 in
  let status = ref Optimal in
  for j = 0 to p.nv - 1 do
    let c = p.obj.(j) in
    if c > 0.0 then
      if Float.is_finite lo.(j) then x.(j) <- lo.(j) else status := Unbounded
    else if c < 0.0 then
      if Float.is_finite hi.(j) then x.(j) <- hi.(j) else status := Unbounded
    else x.(j) <- (if Float.is_finite lo.(j) then lo.(j) else min hi.(j) 0.0)
  done;
  {
    status = !status;
    objective = Model.objective_value p x;
    x;
    y = [||];
    dj = Array.copy p.obj;
    iterations = 0;
    basis = None;
  }

let solve_impl ?(max_iter = 0) ?(feas_tol = 1e-7) ?(opt_tol = 1e-7) ?lb ?ub
    ?rhs ?warm ?(warm_primal = false) ?analysis ?bands (p : Model.problem) :
    result =
  let t_solve0 = Unix.gettimeofday () in
  let nv = p.nv and m = p.nr in
  let eta_max = eta_limit () in
  let ftmode = ft_enabled () in
  let refac_lim = refactor_limit () in
  let ft_cap = if ftmode then ft_update_cap ~refac_lim else max_int in
  let small = m > 0 && m <= small_lp_threshold () in
  (* [Putil.Env.explicit] treats an empty value as unset: [Unix.putenv]
     cannot remove a variable, so in-process benchmarks set "" to hand
     the choice back to the auto mode. *)
  let hyper =
    if Putil.Env.explicit "POWERLIM_HYPERSPARSE" then hypersparse_enabled ()
    else not small
  in
  let devex =
    if Putil.Env.explicit "POWERLIM_DEVEX" then devex_enabled ()
    else not small
  in
  let lb_s = match lb with Some a -> a | None -> p.lb in
  let ub_s = match ub with Some a -> a | None -> p.ub in
  let rhs_s = match rhs with Some a -> a | None -> p.row_rhs in
  let max_iter = if max_iter > 0 then max_iter else 20_000 + (60 * m) in
  (* Column layout: 0..nv-1 structural, nv..nv+m-1 slacks, then
     artificials.  [ntot] grows as artificials are added. *)
  let cap = nv + m + m in
  let lo = Array.make cap 0.0 and hi = Array.make cap 0.0 in
  Array.blit lb_s 0 lo 0 nv;
  Array.blit ub_s 0 hi 0 nv;
  for i = 0 to m - 1 do
    let j = nv + i in
    match p.row_sense.(i) with
    | Model.Le ->
        lo.(j) <- 0.0;
        hi.(j) <- inf
    | Model.Ge ->
        lo.(j) <- neg_inf;
        hi.(j) <- 0.0
    | Model.Eq ->
        lo.(j) <- 0.0;
        hi.(j) <- 0.0
  done;
  if m = 0 then begin
    let r = solve_unconstrained p lo hi in
    Stats.note_solve ~warm:false ~iterations:0 ~dual:0 ~flips:0 ~factors:0
      ~wall:(Unix.gettimeofday () -. t_solve0);
    r
  end
  else begin
    (* One solve attempt: cold (phase 1/2 primal) when [warm_opt = None],
       otherwise installs the given basis and runs the dual simplex.
       Warm attempts raise [Warm_fallback] on any irreparable state and
       are retried cold by the dispatcher below. *)
    let attempt warm_opt =
      let nart = ref 0 in
      let art_row = Array.make m (-1) and art_sig = Array.make m 1.0 in
      let ntot () = nv + m + !nart in
      let col_iter j f =
        if j < nv then Sparse.Csc.iter_col p.a j f
        else if j < nv + m then f (j - nv) 1.0
        else f art_row.(j - nv - m) art_sig.(j - nv - m)
      in
      let col_dot j (y : float array) =
        if j < nv then Sparse.Csc.dot_col p.a j y
        else if j < nv + m then y.(j - nv)
        else art_sig.(j - nv - m) *. y.(art_row.(j - nv - m))
      in
      let where = Array.make cap (-1) in
      let nb_at = Array.make cap 'l' in
      let basis = Array.make m 0 in
      let x_basic = Array.make m 0.0 in
      let nbval j =
        match nb_at.(j) with
        | 'l' -> lo.(j)
        | 'u' -> hi.(j)
        | _ -> 0.0
      in
      (match warm_opt with
      | None ->
          (* Initial nonbasic statuses for structural columns. *)
          for j = 0 to nv - 1 do
            nb_at.(j) <-
              (if Float.is_finite lo.(j) then 'l'
               else if Float.is_finite hi.(j) then 'u'
               else 'f')
          done;
          (* Row activities of the nonbasic structural point. *)
          let act = Array.make m 0.0 in
          let x0 = Array.init nv nbval in
          Sparse.Csc.mult p.a x0 act;
          for i = 0 to m - 1 do
            let sj = nv + i in
            let sval = rhs_s.(i) -. act.(i) in
            if sval >= lo.(sj) -. feas_tol && sval <= hi.(sj) +. feas_tol
            then begin
              basis.(i) <- sj;
              where.(sj) <- i;
              x_basic.(i) <- sval
            end
            else begin
              let bound = if sval < lo.(sj) then lo.(sj) else hi.(sj) in
              nb_at.(sj) <- (if sval < lo.(sj) then 'l' else 'u');
              let r = sval -. bound in
              let k = !nart in
              incr nart;
              art_row.(k) <- i;
              art_sig.(k) <- (if r >= 0.0 then 1.0 else -1.0);
              let aj = nv + m + k in
              lo.(aj) <- 0.0;
              hi.(aj) <- inf;
              basis.(i) <- aj;
              where.(aj) <- i;
              x_basic.(i) <- Float.abs r
            end
          done
      | Some wb ->
          (* Install the caller's basis; repair nonbasic statuses against
             the (possibly changed) bounds. *)
          if Array.length wb.basic <> m || Array.length wb.vstat <> nv + m
          then raise Warm_fallback;
          Array.iteri
            (fun k j ->
              if j < 0 || j >= nv + m || where.(j) >= 0 then
                raise Warm_fallback;
              basis.(k) <- j;
              where.(j) <- k)
            wb.basic;
          for j = 0 to nv + m - 1 do
            if where.(j) < 0 then
              nb_at.(j) <-
                (match wb.vstat.(j) with
                | 'l' when Float.is_finite lo.(j) -> 'l'
                | 'u' when Float.is_finite hi.(j) -> 'u'
                | _ ->
                    if Float.is_finite lo.(j) then 'l'
                    else if Float.is_finite hi.(j) then 'u'
                    else 'f')
          done);
      (* --- basis factorization machinery ------------------------------- *)
      let stats_on = Sys.getenv_opt "LP_STATS" <> None in
      let t_factor = ref 0.0
      and t_ftran = ref 0.0
      and t_btran = ref 0.0
      and t_price = ref 0.0
      and t_ratio = ref 0.0
      and lu_nnz_total = ref 0
      and n_factor = ref 0 in
      let clock () = if stats_on then Unix.gettimeofday () else 0.0 in
      (* Staircase bands: the caller supplies per-structural-column and
         per-row stage indices; each factorization maps them onto the
         current basis (slacks and artificials inherit their row's
         band) so [Lu.factor] can order band-major. *)
      let basis_bands =
        match bands with
        | None -> None
        | Some (cb, rb) ->
            if Array.length cb <> nv || Array.length rb <> m then
              invalid_arg "Revised.solve: bands arrays mismatch problem";
            let band j =
              if j < nv then cb.(j)
              else if j < nv + m then rb.(j - nv)
              else rb.(art_row.(j - nv - m))
            in
            Some (fun () -> Array.init m (fun k -> band basis.(k)))
      in
      let factor_basis () =
        match basis_bands with
        | None -> Lu.factor ~symbolic:hyper ~m (fun k f -> col_iter basis.(k) f)
        | Some mk ->
            Lu.factor ~symbolic:hyper ~bands:(mk ()) ~m (fun k f ->
                col_iter basis.(k) f)
      in
      let lu = ref (factor_basis ()) in
      let etas = ref [] (* newest first *) in
      let n_etas = ref 0 in
      (* Forrest–Tomlin state: [ft] wraps the current factorization with
         updatable U storage.  Rebuilt (cheaply — the workspace is
         reused) at every refactorization; [None] only before the first
         one.  The eta file stays empty in FT mode, so every
         [apply_etas_to_w] and eta-transpose loop below is a no-op. *)
      let ftw = Lu.Ft.make_wsp (if ftmode then m else 0) in
      let ft : Lu.Ft.u option ref = ref None in
      let c_ft_updates = ref 0 in
      let fill_max = ref 0.0 in
      let ft_u () =
        match !ft with Some u -> u | None -> assert false
      in
      let scratch = Array.make m 0.0 in
      let bwork = Array.make m 0.0 in
      (* --- hypersparse kernel state ------------------------------------
         [w] and [rho] (declared below) carry a support list alongside the
         dense array: [w_n = -1] means the whole array is valid (a dense
         kernel wrote it), [w_n >= 0] means entries outside
         [w_ind.(0 .. w_n-1)] are exactly zero.  The arrays are kept
         all-zero outside the support between uses, so clearing costs
         O(support).  [sb] is the shared sparse right-hand-side scratch
         (kept all-zero between uses), with stamped membership so builds
         that hit a row twice record it once. *)
      let sw = Lu.make_swork m in
      let w_ind = Array.make m 0 in
      let w_n = ref 0 in
      let w_in = Array.make m (-1) in
      let w_epoch = ref 0 in
      let rho_ind = Array.make m 0 in
      let rho_n = ref 0 in
      let sb = Array.make m 0.0 in
      let sb_ind = Array.make m 0 in
      let sb_in = Array.make m (-1) in
      let sb_epoch = ref 0 in
      let c_ftran_sp = ref 0
      and c_ftran_dn = ref 0
      and c_btran_sp = ref 0
      and c_btran_dn = ref 0
      and c_devex_resets = ref 0
      and c_refreshes = ref 0 in
      (* Adaptive dense/sparse switching: the reachability probe costs
         real work even when it aborts at the cutoff, so after [af_trip]
         consecutive dense fallbacks a kernel goes straight to the dense
         path for the next [af_hold] calls before probing sparsity
         again.  Both paths produce bitwise-identical vectors, so the
         policy only ever moves time. *)
      let af_trip = 4 and af_hold = 64 in
      let ft_fail = ref 0 and ft_skip = ref 0 in
      let bt_fail = ref 0 and bt_skip = ref 0 in
      let recompute_x_basic () =
        Array.blit rhs_s 0 bwork 0 m;
        for j = 0 to ntot () - 1 do
          if where.(j) < 0 then begin
            let v = nbval j in
            if v <> 0.0 then
              col_iter j (fun i a -> bwork.(i) <- bwork.(i) -. (a *. v))
          end
        done;
        match !ft with
        | Some u -> Lu.Ft.ftran_d u ~keep_spike:false ~b:bwork ~x:x_basic ~scratch
        | None -> Lu.solve !lu ~b:bwork ~x:x_basic ~scratch
      in
      let rec refactorize depth =
        if depth > 4 then failwith "Revised: unable to repair singular basis";
        let t0 = clock () in
        let f = factor_basis () in
        t_factor := !t_factor +. clock () -. t0;
        incr n_factor;
        lu_nnz_total := !lu_nnz_total + Lu.nnz f;
        etas := [];
        n_etas := 0;
        (match !ft with
        | Some u ->
            if Lu.Ft.fill_hwm u > !fill_max then fill_max := Lu.Ft.fill_hwm u;
            ft := None
        | None -> ());
        match f.Lu.replaced with
        | [] ->
            lu := f;
            if ftmode then ft := Some (Lu.Ft.of_factor ftw f);
            recompute_x_basic ()
        | reps ->
            List.iter
              (fun (kpos, row) ->
                let old = basis.(kpos) in
                where.(old) <- -1;
                nb_at.(old) <-
                  (if Float.is_finite lo.(old) then 'l'
                   else if Float.is_finite hi.(old) then 'u'
                   else 'f');
                let slack = nv + row in
                if where.(slack) >= 0 then
                  failwith "Revised: basis repair failed (slack already basic)";
                basis.(kpos) <- slack;
                where.(slack) <- kpos)
              reps;
            refactorize (depth + 1)
      in
      (* Refactorization trigger, checked at every loop top: fill ratio
         (plus the update-count backstop) in FT mode, eta-file length on
         the legacy path. *)
      let need_refactor () =
        if not ftmode then !n_etas >= eta_max
        else
          match !ft with
          | None -> true
          | Some u ->
              Lu.Ft.nupdates u >= ft_cap || Lu.Ft.fill_ratio u > refac_lim
      in
      refactorize 0;
      recompute_x_basic ();
      (* The simplex work vectors, with support state for the sparse
         kernels (see above). *)
      let w = Array.make m 0.0 in
      let rho = Array.make m 0.0 in
      (* Apply the eta file (oldest first) to [w] in place.  On the
         sparse path new support members appear only at eta rows/indices;
         membership stamps keep the support list duplicate-free. *)
      let apply_etas_to_w () =
        if !w_n < 0 then
          List.iter
            (fun e ->
              let t = w.(e.er) in
              if t <> 0.0 then begin
                w.(e.er) <- e.edia *. t;
                for k = 0 to Array.length e.eidx - 1 do
                  w.(e.eidx.(k)) <- w.(e.eidx.(k)) +. (e.evals.(k) *. t)
                done
              end)
            (List.rev !etas)
        else if !etas <> [] then begin
          incr w_epoch;
          let ep = !w_epoch in
          for t2 = 0 to !w_n - 1 do
            w_in.(w_ind.(t2)) <- ep
          done;
          List.iter
            (fun e ->
              let t = w.(e.er) in
              if t <> 0.0 then begin
                w.(e.er) <- e.edia *. t;
                for k = 0 to Array.length e.eidx - 1 do
                  let i = e.eidx.(k) in
                  let add = e.evals.(k) *. t in
                  if w_in.(i) = ep then w.(i) <- w.(i) +. add
                  else if add <> 0.0 then begin
                    w_in.(i) <- ep;
                    w_ind.(!w_n) <- i;
                    incr w_n;
                    w.(i) <- add
                  end
                done
              end)
            (List.rev !etas)
        end
      in
      (* Solve B w = sb (support [sb_ind.(0 .. nb-1)]) and apply the eta
         file; [sb] is left for the caller to clear.  Keeps [w]'s support
         state and the kernel counters. *)
      let solve_into_w ?(keep_spike = false) nb =
        (match !w_n with
        | -1 -> Array.fill w 0 m 0.0
        | n ->
            for t2 = 0 to n - 1 do
              w.(w_ind.(t2)) <- 0.0
            done);
        let skipping = !ft_skip > 0 in
        let r =
          if skipping then begin
            decr ft_skip;
            Array.fill bwork 0 m 0.0;
            for s2 = 0 to nb - 1 do
              let i = sb_ind.(s2) in
              bwork.(i) <- sb.(i)
            done;
            (match !ft with
            | Some u -> Lu.Ft.ftran_d u ~keep_spike ~b:bwork ~x:w ~scratch
            | None -> Lu.solve !lu ~b:bwork ~x:w ~scratch);
            -1
          end
          else
            match !ft with
            | Some u ->
                Lu.Ft.ftran_sp u ~keep_spike ~nb ~bidx:sb_ind ~b:sb ~x:w
                  ~xind:w_ind
            | None -> Lu.solve_sp !lu sw ~nb ~bidx:sb_ind ~b:sb ~x:w ~xind:w_ind
        in
        if r < 0 then begin
          w_n := -1;
          incr c_ftran_dn;
          if not skipping then begin
            incr ft_fail;
            if !ft_fail >= af_trip then begin
              ft_fail := 0;
              ft_skip := af_hold
            end
          end
        end
        else begin
          w_n := r;
          incr c_ftran_sp;
          ft_fail := 0
        end;
        apply_etas_to_w ();
        (* The ratio test and eta extraction scan the support in
           ascending row order so magnitude ties resolve exactly as the
           dense 0..m-1 loops do. *)
        if !w_n >= 0 then Lu.sort_prefix w_ind !w_n
      in
      let ftran ?(keep_spike = false) j =
        let t0 = clock () in
        if not hyper then begin
          Array.fill bwork 0 m 0.0;
          col_iter j (fun i v -> bwork.(i) <- bwork.(i) +. v);
          (match !ft with
          | Some u -> Lu.Ft.ftran_d u ~keep_spike ~b:bwork ~x:w ~scratch
          | None -> Lu.solve !lu ~b:bwork ~x:w ~scratch);
          w_n := -1;
          incr c_ftran_dn;
          apply_etas_to_w ()
        end
        else begin
          incr sb_epoch;
          let ep = !sb_epoch in
          let nb = ref 0 in
          col_iter j (fun i v ->
              if sb_in.(i) <> ep then begin
                sb_in.(i) <- ep;
                sb_ind.(!nb) <- i;
                incr nb
              end;
              sb.(i) <- sb.(i) +. v);
          let nb0 = !nb in
          solve_into_w ~keep_spike nb0;
          for s2 = 0 to nb0 - 1 do
            sb.(sb_ind.(s2)) <- 0.0
          done
        end;
        t_ftran := !t_ftran +. clock () -. t0
      in
      let btran (cb : float array) (y : float array) =
        let t0 = clock () in
        (* Apply eta transposes newest-first, then the base factorization. *)
        List.iter
          (fun e ->
            let s = ref (e.edia *. cb.(e.er)) in
            for k = 0 to Array.length e.eidx - 1 do
              s := !s +. (e.evals.(k) *. cb.(e.eidx.(k)))
            done;
            cb.(e.er) <- !s)
          !etas;
        (match !ft with
        | Some u -> Lu.Ft.btran_d u ~c:cb ~y ~scratch
        | None -> Lu.solve_t !lu ~c:cb ~y ~scratch);
        incr c_btran_dn;
        t_btran := !t_btran +. clock () -. t0
      in
      let cb = Array.make m 0.0 in
      (* Unit-RHS BTRAN: rho = row r of B^-1, the pivot-row solve shared
         by the dual simplex and devex pricing.  Sparse path applies the
         eta transposes to a stamped sparse vector (positions outside the
         support read as the exact zeros the dense pass holds there),
         then runs the reachability-based transpose solve. *)
      let btran_unit r (rho : float array) =
        if not hyper then begin
          Array.fill cb 0 m 0.0;
          cb.(r) <- 1.0;
          btran cb rho;
          rho_n := -1
        end
        else begin
          let t0 = clock () in
          incr sb_epoch;
          let ep = !sb_epoch in
          let nc = ref 1 in
          sb_ind.(0) <- r;
          sb_in.(r) <- ep;
          sb.(r) <- 1.0;
          List.iter
            (fun e ->
              let s = ref (e.edia *. sb.(e.er)) in
              for k = 0 to Array.length e.eidx - 1 do
                s := !s +. (e.evals.(k) *. sb.(e.eidx.(k)))
              done;
              let s = !s in
              if sb_in.(e.er) = ep then sb.(e.er) <- s
              else if s <> 0.0 then begin
                sb_in.(e.er) <- ep;
                sb_ind.(!nc) <- e.er;
                incr nc;
                sb.(e.er) <- s
              end)
            !etas;
          (match !rho_n with
          | -1 -> Array.fill rho 0 m 0.0
          | n ->
              for t2 = 0 to n - 1 do
                rho.(rho_ind.(t2)) <- 0.0
              done);
          let skipping = !bt_skip > 0 in
          let res =
            if skipping then begin
              decr bt_skip;
              Array.fill cb 0 m 0.0;
              for s2 = 0 to !nc - 1 do
                let i = sb_ind.(s2) in
                cb.(i) <- sb.(i)
              done;
              (match !ft with
              | Some u -> Lu.Ft.btran_d u ~c:cb ~y:rho ~scratch
              | None -> Lu.solve_t !lu ~c:cb ~y:rho ~scratch);
              -1
            end
            else
              match !ft with
              | Some u ->
                  Lu.Ft.btran_sp u ~nc:!nc ~cidx:sb_ind ~c:sb ~y:rho
                    ~yind:rho_ind
              | None ->
                  Lu.solve_t_sp !lu sw ~nc:!nc ~cidx:sb_ind ~c:sb ~y:rho
                    ~yind:rho_ind
          in
          for s2 = 0 to !nc - 1 do
            sb.(sb_ind.(s2)) <- 0.0
          done;
          if res < 0 then begin
            rho_n := -1;
            incr c_btran_dn;
            if not skipping then begin
              incr bt_fail;
              if !bt_fail >= af_trip then begin
                bt_fail := 0;
                bt_skip := af_hold
              end
            end
          end
          else begin
            rho_n := res;
            incr c_btran_sp;
            bt_fail := 0
          end;
          t_btran := !t_btran +. clock () -. t0
        end
      in
      let push_eta (w : float array) r =
        let wr = w.(r) in
        if !w_n < 0 then begin
          let cnt = ref 0 in
          for k = 0 to m - 1 do
            if k <> r && Float.abs w.(k) > 1e-12 then incr cnt
          done;
          let eidx = Array.make !cnt 0 and evals = Array.make !cnt 0.0 in
          let at = ref 0 in
          for k = 0 to m - 1 do
            if k <> r && Float.abs w.(k) > 1e-12 then begin
              eidx.(!at) <- k;
              evals.(!at) <- -.w.(k) /. wr;
              incr at
            end
          done;
          etas := { er = r; eidx; evals; edia = 1.0 /. wr } :: !etas;
          incr n_etas
        end
        else begin
          (* Same extraction restricted to the (sorted) support: entries
             off the support are zero and fail the magnitude filter in
             the dense scan too. *)
          let cnt = ref 0 in
          for t2 = 0 to !w_n - 1 do
            let k = w_ind.(t2) in
            if k <> r && Float.abs w.(k) > 1e-12 then incr cnt
          done;
          let eidx = Array.make !cnt 0 and evals = Array.make !cnt 0.0 in
          let at = ref 0 in
          for t2 = 0 to !w_n - 1 do
            let k = w_ind.(t2) in
            if k <> r && Float.abs w.(k) > 1e-12 then begin
              eidx.(!at) <- k;
              evals.(!at) <- -.w.(k) /. wr;
              incr at
            end
          done;
          etas := { er = r; eidx; evals; edia = 1.0 /. wr } :: !etas;
          incr n_etas
        end
      in
      (* --- simplex iterations ------------------------------------------ *)
      let cost = Array.make cap 0.0 in
      let y = Array.make m 0.0 in
      let iters = ref 0 in
      let dual_pivots = ref 0 in
      let bound_flips = ref 0 in
      let bland = ref false in
      let degen = ref 0 in
      let price_cursor = ref 0 in
      (* Row-major view of A, shared by dual-simplex pricing and the
         devex pivot-row gather; reused across solves via [?analysis]
         when the caller's matrix is unchanged. *)
      let arows_l =
        match analysis with
        | Some a -> lazy a.arows
        | None -> lazy (Sparse.Csc.rows p.a)
      in
      (* Touched-column workspace for pivot-row pricing (alpha = rho^T A
         gathered over supp(rho)); stamped by iteration number, so one
         gather per iteration needs no reset. *)
      let alpha_acc = Array.make cap 0.0 in
      let stamp = Array.make cap (-1) in
      let touched = Array.make cap 0 in
      (* Dual ratio-test candidates and pending bound flips, kept in
         preallocated parallel arrays: the test runs every dual pivot,
         and list-of-tuple sorting was a measurable allocation cost. *)
      let dc_ratio = Array.make cap 0.0 in
      let dc_alpha = Array.make cap 0.0 in
      let dc_j = Array.make cap 0 in
      let df_j = Array.make cap 0 in
      let df_delta = Array.make cap 0.0 in
      (* In-place quicksort of the candidate triples by (ratio asc,
         pivot magnitude desc, column asc) — the same total order the
         list sort used, so the sorted sequence is identical.  All keys
         are non-negative finite floats and columns are distinct, so
         plain [<] agrees with [Float.compare]. *)
      let dc_lt (r1 : float) (a1 : float) (j1 : int) r2 a2 j2 =
        r1 < r2 || (r1 = r2 && (a1 > a2 || (a1 = a2 && j1 < j2)))
      in
      let dc_swap i j =
        let tr = dc_ratio.(i) in
        dc_ratio.(i) <- dc_ratio.(j);
        dc_ratio.(j) <- tr;
        let ta = dc_alpha.(i) in
        dc_alpha.(i) <- dc_alpha.(j);
        dc_alpha.(j) <- ta;
        let tj = dc_j.(i) in
        dc_j.(i) <- dc_j.(j);
        dc_j.(j) <- tj
      in
      let rec dc_sort lo_ hi_ =
        if hi_ - lo_ >= 12 then begin
          let mid = (lo_ + hi_) / 2 in
          let pr = dc_ratio.(mid) and pa = dc_alpha.(mid) and pj = dc_j.(mid) in
          let i = ref lo_ and j = ref hi_ in
          while !i <= !j do
            while dc_lt dc_ratio.(!i) dc_alpha.(!i) dc_j.(!i) pr pa pj do
              incr i
            done;
            while dc_lt pr pa pj dc_ratio.(!j) dc_alpha.(!j) dc_j.(!j) do
              decr j
            done;
            if !i <= !j then begin
              dc_swap !i !j;
              incr i;
              decr j
            end
          done;
          dc_sort lo_ !j;
          dc_sort !i hi_
        end
        else
          for k = lo_ + 1 to hi_ do
            let r = dc_ratio.(k) and a = dc_alpha.(k) and j = dc_j.(k) in
            let t = ref k in
            while
              !t > lo_
              && dc_lt r a j dc_ratio.(!t - 1) dc_alpha.(!t - 1) dc_j.(!t - 1)
            do
              dc_ratio.(!t) <- dc_ratio.(!t - 1);
              dc_alpha.(!t) <- dc_alpha.(!t - 1);
              dc_j.(!t) <- dc_j.(!t - 1);
              decr t
            done;
            dc_ratio.(!t) <- r;
            dc_alpha.(!t) <- a;
            dc_j.(!t) <- j
          done
      in
      (* Devex reference-framework pricing state: [dx] incrementally
         maintained reduced costs, [dw] devex weights, [cand] the
         current candidate list. *)
      let dx = Array.make (if devex then cap else 0) 0.0 in
      let dw = Array.make (if devex then cap else 0) 1.0 in
      let cand = Array.make (if devex then cap else 0) 0 in
      let ncand = ref 0 in
      (* Expensive per-pivot invariant check, enabled via LP_PARANOID. *)
      let paranoid = Sys.getenv_opt "LP_PARANOID" <> None in
      let check_invariants () =
        if paranoid then begin
          (* Recompute the basic point from a local fresh factorization
             — the live [lu]/[etas]/[ft] state is never touched, so the
             check composes with the Forrest–Tomlin workspace (whose
             single [wsp] cannot back two factorizations at once). *)
          let saved = Array.copy x_basic in
          let f = factor_basis () in
          Array.blit rhs_s 0 bwork 0 m;
          for j = 0 to ntot () - 1 do
            if where.(j) < 0 then begin
              let v = nbval j in
              if v <> 0.0 then
                col_iter j (fun i a -> bwork.(i) <- bwork.(i) -. (a *. v))
            end
          done;
          Lu.solve f ~b:bwork ~x:x_basic ~scratch;
          let drift = ref 0.0 in
          for k = 0 to m - 1 do
            let d = Float.abs (x_basic.(k) -. saved.(k)) in
            if d > !drift then drift := d
          done;
          if !drift > 1e-6 then begin
            (* residual of the incrementally maintained point: b - A x *)
            let res = Array.copy rhs_s in
            let sub j xv =
              if xv <> 0.0 then
                col_iter j (fun i a -> res.(i) <- res.(i) -. (a *. xv))
            in
            for j = 0 to ntot () - 1 do
              if where.(j) < 0 then sub j (nbval j)
            done;
            for k = 0 to m - 1 do
              sub basis.(k) saved.(k)
            done;
            let rmax =
              Array.fold_left (fun a v -> max a (Float.abs v)) 0.0 res
            in
            Printf.eprintf
              "LP_PARANOID: iter %d drift %g incremental-residual %g \
               replaced %d\n\
               %!"
              !iters !drift rmax
              (List.length f.Lu.replaced);
            (match Sys.getenv_opt "LP_DUMP_BASIS" with
            | Some path when not (Sys.file_exists path) ->
                Putil.Fileio.with_out path (fun oc ->
                    Printf.fprintf oc "%d\n" m;
                    for k = 0 to m - 1 do
                      col_iter basis.(k) (fun i v ->
                          Printf.fprintf oc "%d %d %.17g\n" i k v)
                    done)
            | _ -> ())
          end;
          Array.blit saved 0 x_basic 0 m
        end
      in
      (* Record the just-executed pivot at position [r] in the working
         factorization: a Forrest–Tomlin update (consuming the spike
         kept by the entering column's FTRAN) or a product-form eta.  An
         FT refusal — zero or uncertified border diagonal — leaves the
         updated state unusable, and the basis arrays already reflect
         the pivot, so refactorizing from the basis is the exact
         recovery. *)
      let pivot_update (w : float array) r =
        if not ftmode then push_eta w r
        else if not (Lu.Ft.update (ft_u ()) ~pos:r ~wr:w.(r)) then
          refactorize 0
        else incr c_ft_updates
      in
      (* Ratio test plus bound-flip/pivot for entering column [je] moving
         in direction [s].  Shared by classic and devex pricing.
         [on_pivot ~r] runs after the leaving row [r] is chosen but
         before any basis or eta mutation, so devex can price the pivot
         row against the pre-pivot basis. *)
      let enter_column ?(on_pivot = fun ~r:_ -> ()) je s =
        let res = ref `Ok in
        ftran ~keep_spike:true je;
        let tratio0 = clock () in
        (* Two-pass Harris ratio test, scanned over [w]'s support (the
           dense pass skips zero entries through the same magnitude
           filter). *)
        let sup_n = if !w_n < 0 then m else !w_n in
        let theta_max = ref inf in
        let t_flip =
          if Float.is_finite lo.(je) && Float.is_finite hi.(je) then
            hi.(je) -. lo.(je)
          else inf
        in
        for ti = 0 to sup_n - 1 do
          let k = if !w_n < 0 then ti else w_ind.(ti) in
          let delta = s *. w.(k) in
          if Float.abs delta > 1e-9 then begin
            let b = basis.(k) in
            if delta > 0.0 && Float.is_finite lo.(b) then begin
              let sl0 = x_basic.(k) -. lo.(b) in
              let slack = if sl0 > 0.0 then sl0 else 0.0 in
              let r = (slack +. feas_tol) /. delta in
              if r < !theta_max then theta_max := r
            end
            else if delta < 0.0 && Float.is_finite hi.(b) then begin
              let sl0 = hi.(b) -. x_basic.(k) in
              let slack = if sl0 > 0.0 then sl0 else 0.0 in
              let r = (slack +. feas_tol) /. -.delta in
              if r < !theta_max then theta_max := r
            end
          end
        done;
        if !theta_max = inf && t_flip = inf then res := `Unbounded
        else begin
          (* pass 2: among blocking candidates within theta_max pick the
             largest pivot magnitude *)
          let leave = ref (-1) and lmag = ref 0.0 and lt = ref inf in
          for ti = 0 to sup_n - 1 do
            let k = if !w_n < 0 then ti else w_ind.(ti) in
            let delta = s *. w.(k) in
            if Float.abs delta > 1e-9 then begin
              let b = basis.(k) in
              (* slack < 0 encodes "not blocking" — real slacks are
                 clamped non-negative, so no option allocation needed *)
              let slack =
                if delta > 0.0 && Float.is_finite lo.(b) then begin
                  let sl0 = x_basic.(k) -. lo.(b) in
                  if sl0 > 0.0 then sl0 else 0.0
                end
                else if delta < 0.0 && Float.is_finite hi.(b) then begin
                  let sl0 = hi.(b) -. x_basic.(k) in
                  if sl0 > 0.0 then sl0 else 0.0
                end
                else -1.0
              in
              if slack >= 0.0 then begin
                let r = slack /. Float.abs delta in
                if r <= !theta_max && Float.abs delta > !lmag then begin
                  leave := k;
                  lmag := Float.abs delta;
                  lt := r
                end
              end
            end
          done;
          let t_leave = if !leave >= 0 then !lt else inf in
          (if t_flip < t_leave then begin
             (* bound flip: no basis change *)
             for ti = 0 to sup_n - 1 do
               let k = if !w_n < 0 then ti else w_ind.(ti) in
               x_basic.(k) <- x_basic.(k) -. (s *. t_flip *. w.(k))
             done;
             nb_at.(je) <- (if nb_at.(je) = 'l' then 'u' else 'l');
             if paranoid then
               Printf.eprintf "LP_PARANOID: iter %d flip j=%d t=%g\n%!" !iters
                 je t_flip;
             check_invariants ();
             if t_flip <= 1e-10 then incr degen else degen := 0
           end
           else if !leave < 0 then res := `Unbounded
           else begin
             let r = !leave in
             let t = t_leave in
             on_pivot ~r;
             for ti = 0 to sup_n - 1 do
               let k = if !w_n < 0 then ti else w_ind.(ti) in
               x_basic.(k) <- x_basic.(k) -. (s *. t *. w.(k))
             done;
             let entering_val = nbval je +. (s *. t) in
             let leaving = basis.(r) in
             where.(leaving) <- -1;
             nb_at.(leaving) <- (if s *. w.(r) > 0.0 then 'l' else 'u');
             basis.(r) <- je;
             where.(je) <- r;
             x_basic.(r) <- entering_val;
             pivot_update w r;
             check_invariants ();
             if t <= 1e-10 then incr degen else degen := 0
           end);
          if !degen > 200 + m then bland := true
          else if !degen = 0 then bland := false;
          t_ratio := !t_ratio +. clock () -. tratio0
        end;
        !res
      in
      let run_phase_classic () =
        let outcome = ref `Run in
        while !outcome = `Run do
          if !iters >= max_iter then outcome := `Iter_limit
          else begin
            incr iters;
            if need_refactor () then refactorize 0;
            for k = 0 to m - 1 do
              cb.(k) <- cost.(basis.(k))
            done;
            btran cb y;
            (* pricing *)
            let best_j = ref (-1)
            and best_mag = ref 0.0
            and best_dir = ref 1.0 in
            let consider j d dir =
              let mag = Float.abs d in
              if !bland then begin
                if !best_j < 0 then begin
                  best_j := j;
                  best_mag := mag;
                  best_dir := dir
                end
              end
              else if mag > !best_mag then begin
                best_j := j;
                best_mag := mag;
                best_dir := dir
              end
            in
            let tprice0 = clock () in
            let total = ntot () in
            (* Partial pricing: scan from a rotating cursor and stop once a
               window's worth of columns has been examined with at least
               one candidate in hand.  Optimality is still exact: the phase
               only ends after a full wrap finds no candidate.  Bland mode
               scans deterministically from column 0. *)
            let window = max 512 (total / 8) in
            if !bland then begin
              let j = ref 0 in
              while !j < total && !best_j < 0 do
                let jj = !j in
                if where.(jj) < 0 && lo.(jj) < hi.(jj) then begin
                  let d = cost.(jj) -. col_dot jj y in
                  let tol = opt_tol *. (1.0 +. Float.abs cost.(jj)) in
                  match nb_at.(jj) with
                  | 'l' -> if d < -.tol then consider jj d 1.0
                  | 'u' -> if d > tol then consider jj d (-1.0)
                  | _ ->
                      if d < -.tol then consider jj d 1.0
                      else if d > tol then consider jj d (-1.0)
                end;
                incr j
              done
            end
            else begin
              let scanned = ref 0 in
              while
                !scanned < total && not (!best_j >= 0 && !scanned >= window)
              do
                let jj = (!price_cursor + !scanned) mod total in
                if where.(jj) < 0 && lo.(jj) < hi.(jj) then begin
                  let d = cost.(jj) -. col_dot jj y in
                  let tol = opt_tol *. (1.0 +. Float.abs cost.(jj)) in
                  match nb_at.(jj) with
                  | 'l' -> if d < -.tol then consider jj d 1.0
                  | 'u' -> if d > tol then consider jj d (-1.0)
                  | _ ->
                      if d < -.tol then consider jj d 1.0
                      else if d > tol then consider jj d (-1.0)
                end;
                incr scanned
              done;
              if !best_j >= 0 then price_cursor := (!best_j + 1) mod total
            end;
            t_price := !t_price +. clock () -. tprice0;
            if !best_j < 0 then outcome := `Phase_done
            else begin
              match enter_column !best_j !best_dir with
              | `Unbounded -> outcome := `Unbounded
              | `Ok -> ()
            end
          end
        done;
        !outcome
      in
      (* --- devex candidate-list pricing --------------------------------
         Reduced costs [dx] are maintained incrementally (a pivot with
         dual step theta moves d_j by -theta * alpha_j, and alpha is
         gathered over the pivot row's support only), so iterations skip
         both the per-iteration BTRAN and the full matrix re-pricing.
         Entering picks maximize d_j^2 / dw_j over a candidate list;
         when the list runs dry it is refreshed from the maintained
         costs, and optimality is only ever declared after an exact
         recompute reproduces the classic full-scan test.  Degeneracy
         falls back to Bland's rule exactly as the classic loop does. *)
      let recompute_dx () =
        for k = 0 to m - 1 do
          cb.(k) <- cost.(basis.(k))
        done;
        btran cb y;
        let total = ntot () in
        for j = 0 to total - 1 do
          dx.(j) <- (if where.(j) >= 0 then 0.0 else cost.(j) -. col_dot j y)
        done
      in
      (* Rebuild the candidate list: the [cand_k] best eligible columns
         by devex score (score-desc, index-asc — a total order, so the
         kept set never depends on scan order).  A bounded min-heap
         keyed on the worst kept candidate selects the top [cand_k] in
         O(n log k) without allocating. *)
      let cand_k = max 16 (min 512 ((nv + m) / 8)) in
      let hs = Array.make (if devex then cand_k else 0) 0.0 in
      let hj = Array.make (if devex then cand_k else 0) 0 in
      let refresh_candidates () =
        incr c_refreshes;
        let total = ntot () in
        let hn = ref 0 in
        (* 'worse' = lower score, then higher column index *)
        let worse (s1 : float) (j1 : int) s2 j2 =
          s1 < s2 || (s1 = s2 && j1 > j2)
        in
        let hswap a b =
          let ts = hs.(a) in
          hs.(a) <- hs.(b);
          hs.(b) <- ts;
          let tj = hj.(a) in
          hj.(a) <- hj.(b);
          hj.(b) <- tj
        in
        let sift_up k0 =
          let k = ref k0 in
          while
            !k > 0
            && worse hs.(!k) hj.(!k) hs.((!k - 1) / 2) hj.((!k - 1) / 2)
          do
            hswap !k ((!k - 1) / 2);
            k := (!k - 1) / 2
          done
        in
        let sift_down () =
          let i = ref 0 in
          let moving = ref true in
          while !moving do
            let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
            let w = ref !i in
            if l < !hn && worse hs.(l) hj.(l) hs.(!w) hj.(!w) then w := l;
            if r < !hn && worse hs.(r) hj.(r) hs.(!w) hj.(!w) then w := r;
            if !w = !i then moving := false
            else begin
              hswap !i !w;
              i := !w
            end
          done
        in
        for j = 0 to total - 1 do
          if where.(j) < 0 && lo.(j) < hi.(j) then begin
            let d = dx.(j) in
            let tol = opt_tol *. (1.0 +. Float.abs cost.(j)) in
            let ok =
              match nb_at.(j) with
              | 'l' -> d < -.tol
              | 'u' -> d > tol
              | _ -> d < -.tol || d > tol
            in
            if ok then begin
              let sc = d *. d /. dw.(j) in
              if !hn < cand_k then begin
                hs.(!hn) <- sc;
                hj.(!hn) <- j;
                sift_up !hn;
                incr hn
              end
              else if worse hs.(0) hj.(0) sc j then begin
                hs.(0) <- sc;
                hj.(0) <- j;
                sift_down ()
              end
            end
          end
        done;
        ncand := !hn;
        Array.blit hj 0 cand 0 !hn
      in
      (* Best still-eligible candidate from the list, by current scores;
         returns (-1, _) when the list has gone stale or empty. *)
      let pick_candidate () =
        let best_j = ref (-1) and best_sc = ref 0.0 and best_dir = ref 1.0 in
        for c = 0 to !ncand - 1 do
          let j = cand.(c) in
          if where.(j) < 0 && lo.(j) < hi.(j) then begin
            let d = dx.(j) in
            let tol = opt_tol *. (1.0 +. Float.abs cost.(j)) in
            let dir =
              match nb_at.(j) with
              | 'l' -> if d < -.tol then 1.0 else 0.0
              | 'u' -> if d > tol then -1.0 else 0.0
              | _ -> if d < -.tol then 1.0 else if d > tol then -1.0 else 0.0
            in
            if dir <> 0.0 then begin
              let sc = d *. d /. dw.(j) in
              if
                sc > !best_sc
                || (sc = !best_sc && !best_j >= 0 && j < !best_j)
              then begin
                best_j := j;
                best_sc := sc;
                best_dir := dir
              end
            end
          end
        done;
        (!best_j, !best_dir)
      in
      let devex_reset () =
        Array.fill dw 0 (Array.length dw) 1.0;
        incr c_devex_resets
      in
      (* Pivot hook: update [dx] and the devex weights from the pivot
         row.  Runs pre-pivot (je still nonbasic, basis.(r) still
         basic); alpha_je equals w.(r). *)
      let d_stale = ref true in
      let devex_update je ~r =
        let wr = w.(r) in
        if Float.abs wr < 1e-9 then d_stale := true
        else begin
          let theta = dx.(je) /. wr in
          let gq = if dw.(je) > 1.0 then dw.(je) else 1.0 in
          let wr2 = wr *. wr in
          btran_unit r rho;
          let arows = Lazy.force arows_l in
          let ntouched = ref 0 in
          let touch j =
            if stamp.(j) <> !iters then begin
              stamp.(j) <- !iters;
              alpha_acc.(j) <- 0.0;
              touched.(!ntouched) <- j;
              incr ntouched
            end
          in
          let rsup_n = if !rho_n < 0 then m else !rho_n in
          for rt = 0 to rsup_n - 1 do
            let i = if !rho_n < 0 then rt else rho_ind.(rt) in
            let ri = rho.(i) in
            if Float.abs ri > 1e-12 then begin
              let js = nv + i in
              touch js;
              alpha_acc.(js) <- alpha_acc.(js) +. ri;
              for k = arows.Sparse.Csc.rowptr.(i)
                  to arows.Sparse.Csc.rowptr.(i + 1) - 1
              do
                let j = arows.Sparse.Csc.colind.(k) in
                touch j;
                alpha_acc.(j) <-
                  alpha_acc.(j) +. (ri *. arows.Sparse.Csc.rvalues.(k))
              done
            end
          done;
          for tk = 0 to !ntouched - 1 do
            let j = touched.(tk) in
            if where.(j) < 0 then begin
              let a = alpha_acc.(j) in
              dx.(j) <- dx.(j) -. (theta *. a);
              let wj = a *. a /. wr2 *. gq in
              if wj > dw.(j) then dw.(j) <- wj
            end
          done;
          (* Artificial columns are unit columns, invisible to the CSR
             gather. *)
          for k2 = 0 to !nart - 1 do
            let aj = nv + m + k2 in
            if where.(aj) < 0 then begin
              let a = art_sig.(k2) *. rho.(art_row.(k2)) in
              if a <> 0.0 then begin
                dx.(aj) <- dx.(aj) -. (theta *. a);
                let wj = a *. a /. wr2 *. gq in
                if wj > dw.(aj) then dw.(aj) <- wj
              end
            end
          done;
          dx.(je) <- 0.0;
          let b = basis.(r) in
          dx.(b) <- -.theta;
          dw.(b) <- (let v = gq /. wr2 in
                     if v > 1.0 then v else 1.0);
          if gq > 1e8 || dw.(b) > 1e8 then devex_reset ()
        end
      in
      let run_phase_devex () =
        let outcome = ref `Run in
        d_stale := true;
        devex_reset ();
        (* the phase-entry framework reset is bookkeeping, not a
           degeneracy event *)
        decr c_devex_resets;
        while !outcome = `Run do
          if !iters >= max_iter then outcome := `Iter_limit
          else begin
            incr iters;
            (* Refactorization replaces the eta file but leaves the basis
               — and therefore the reduced costs — untouched, so the
               incrementally maintained [dx] stays valid.  Numerical
               drift is caught by the exact optimality certification. *)
            if need_refactor () then refactorize 0;
            if !bland then begin
              (* Bland's rule on exact reduced costs, as the classic
                 loop: lowest-index eligible column enters. *)
              recompute_dx ();
              let total = ntot () in
              let je = ref (-1) and s = ref 1.0 in
              let j = ref 0 in
              while !j < total && !je < 0 do
                let jj = !j in
                if where.(jj) < 0 && lo.(jj) < hi.(jj) then begin
                  let d = dx.(jj) in
                  let tol = opt_tol *. (1.0 +. Float.abs cost.(jj)) in
                  match nb_at.(jj) with
                  | 'l' ->
                      if d < -.tol then begin
                        je := jj;
                        s := 1.0
                      end
                  | 'u' ->
                      if d > tol then begin
                        je := jj;
                        s := -1.0
                      end
                  | _ ->
                      if d < -.tol then begin
                        je := jj;
                        s := 1.0
                      end
                      else if d > tol then begin
                        je := jj;
                        s := -1.0
                      end
                end;
                incr j
              done;
              if !je < 0 then outcome := `Phase_done
              else begin
                d_stale := true;
                match enter_column !je !s with
                | `Unbounded -> outcome := `Unbounded
                | `Ok -> ()
              end
            end
            else begin
              let tprice0 = clock () in
              if !d_stale then begin
                recompute_dx ();
                d_stale := false;
                refresh_candidates ()
              end;
              let je, s =
                let je, s = pick_candidate () in
                if je >= 0 then (je, s)
                else begin
                  refresh_candidates ();
                  let je, s = pick_candidate () in
                  if je >= 0 then (je, s)
                  else begin
                    (* exact certification: only the classic full-scan
                       test on freshly computed reduced costs may end
                       the phase *)
                    recompute_dx ();
                    d_stale := false;
                    refresh_candidates ();
                    pick_candidate ()
                  end
                end
              in
              t_price := !t_price +. clock () -. tprice0;
              if je < 0 then outcome := `Phase_done
              else begin
                match enter_column ~on_pivot:(devex_update je) je s with
                | `Unbounded -> outcome := `Unbounded
                | `Ok -> ()
              end
            end
          end
        done;
        !outcome
      in
      (* Devex reference weights are calibrated to the phase objective;
         the phase-1 artificial objective is so degenerate that devex
         mostly churns there, so phase 1 always prices classically. *)
      let run_phase ?(p1 = false) () =
        if devex && not p1 then run_phase_devex () else run_phase_classic ()
      in
      (* --- dual simplex (warm re-solves) -------------------------------
         Invariant: nonbasic reduced costs are dual-feasible (repaired on
         entry); basic variables may violate their bounds.  Each iteration
         picks the most-violated basic variable to leave, prices the row
         with a dual ratio test, flips boxed columns whose full flip is
         cheaper than the remaining violation (bound-flip ratio test) and
         pivots the blocking column in. *)
      let run_dual () =
        let outcome = ref `Run in
        let bad_pivots = ref 0 in
        let dual_cap = m + 2000 in
        (* Row-major view for pricing: alpha = rho^T A is gathered over
           supp(rho) only, so each iteration costs the fill of the pivot
           row rather than a full-matrix scan.  [stamp]/[touched] give
           O(touched) reset between iterations. *)
        let arows = Lazy.force arows_l in
        (* Reduced costs are maintained incrementally: a pivot with dual
           step theta only moves d_j by -theta * alpha_j, and alpha is
           zero outside the gathered columns.  Entries for basic columns
           are dead (the candidate scan skips them); the array is rebuilt
           from the duals at every refactorization to bound drift. *)
        let d = Array.make (nv + m) 0.0 in
        let recompute_d () =
          for k = 0 to m - 1 do
            cb.(k) <- cost.(basis.(k))
          done;
          btran cb y;
          for j = 0 to nv + m - 1 do
            d.(j) <- (if where.(j) >= 0 then 0.0 else cost.(j) -. col_dot j y)
          done
        in
        recompute_d ();
        while !outcome = `Run do
          if !iters >= max_iter then outcome := `Iter_limit
          else if !dual_pivots > dual_cap then begin
            if stats_on then
              Printf.eprintf "LP_STATS: dual cap hit (%d pivots, m=%d)\n%!"
                !dual_pivots m;
            outcome := `Numerical
          end
          else begin
            incr iters;
            incr dual_pivots;
            if need_refactor () then begin
              refactorize 0;
              recompute_d ()
            end;
            (* leaving row: largest primal bound violation *)
            let lrow = ref (-1) and viol = ref feas_tol and below = ref true in
            for k = 0 to m - 1 do
              let b = basis.(k) in
              if lo.(b) -. x_basic.(k) > !viol then begin
                lrow := k;
                viol := lo.(b) -. x_basic.(k);
                below := true
              end;
              if x_basic.(k) -. hi.(b) > !viol then begin
                lrow := k;
                viol := x_basic.(k) -. hi.(b);
                below := false
              end
            done;
            if !lrow < 0 then outcome := `Optimal
            else begin
              let r = !lrow in
              (* sigma: direction the leaving basic must move *)
              let sigma = if !below then 1.0 else -1.0 in
              (* rho = row r of B^-1 *)
              btran_unit r rho;
              let tprice0 = clock () in
              (* Entering candidates: nonbasic j whose move in its feasible
                 direction drives x_B(r) toward the violated bound, ranked
                 by dual ratio |d_j| / |alpha_j|.  Gather alpha row-wise:
                 only columns hit by supp(rho) can have nonzero alpha. *)
              let ntouched = ref 0 in
              let touch j =
                if stamp.(j) <> !iters then begin
                  stamp.(j) <- !iters;
                  alpha_acc.(j) <- 0.0;
                  touched.(!ntouched) <- j;
                  incr ntouched
                end
              in
              let rsup_n = if !rho_n < 0 then m else !rho_n in
              for rt = 0 to rsup_n - 1 do
                let i = if !rho_n < 0 then rt else rho_ind.(rt) in
                let ri = rho.(i) in
                if Float.abs ri > 1e-12 then begin
                  let js = nv + i in
                  touch js;
                  alpha_acc.(js) <- alpha_acc.(js) +. ri;
                  for k = arows.Sparse.Csc.rowptr.(i)
                      to arows.Sparse.Csc.rowptr.(i + 1) - 1
                  do
                    let j = arows.Sparse.Csc.colind.(k) in
                    touch j;
                    alpha_acc.(j) <-
                      alpha_acc.(j) +. (ri *. arows.Sparse.Csc.rvalues.(k))
                  done
                end
              done;
              let nc = ref 0 in
              for tk = 0 to !ntouched - 1 do
                let j = touched.(tk) in
                if where.(j) < 0 && lo.(j) < hi.(j) then begin
                  let alpha = alpha_acc.(j) in
                  if Float.abs alpha > 1e-9 then begin
                    let eligible =
                      match nb_at.(j) with
                      | 'l' -> sigma *. alpha < 0.0
                      | 'u' -> sigma *. alpha > 0.0
                      | _ -> true
                    in
                    if eligible then begin
                      dc_ratio.(!nc) <- Float.abs d.(j) /. Float.abs alpha;
                      dc_alpha.(!nc) <- Float.abs alpha;
                      dc_j.(!nc) <- j;
                      incr nc
                    end
                  end
                end
              done;
              t_price := !t_price +. clock () -. tprice0;
              if !nc = 0 then
                (* no column can relieve the violation: the bound system
                   is primal infeasible *)
                outcome := `Primal_infeasible
              else begin
                let nc = !nc in
                let tratio0 = clock () in
                (* smallest dual ratio first; larger pivot, then lower
                   column index, breaks ties — a total order, so the
                   pick does not depend on gather order *)
                dc_sort 0 (nc - 1);
                (* Bound-flip ratio test: a boxed candidate whose full
                   flip removes less than the remaining violation is
                   flipped outright (no pivot); the walk stops at the
                   first candidate that would overshoot (and never flips
                   the last candidate).  The flips only change nonbasic
                   values, so their combined effect on x_basic is applied
                   with a single solve (B^-1 sum_j delta_j a_j) after the
                   walk. *)
                let remaining = ref !viol in
                let nflip = ref 0 in
                let tpos = ref 0 in
                let walking = ref true in
                while !walking && !tpos < nc - 1 do
                  let j = dc_j.(!tpos) and a = dc_alpha.(!tpos) in
                  let range = hi.(j) -. lo.(j) in
                  if
                    Float.is_finite range
                    && nb_at.(j) <> 'f'
                    && (a *. range) < !remaining -. feas_tol
                  then begin
                    let delta = if nb_at.(j) = 'l' then range else -.range in
                    df_j.(!nflip) <- j;
                    df_delta.(!nflip) <- delta;
                    incr nflip;
                    nb_at.(j) <- (if nb_at.(j) = 'l' then 'u' else 'l');
                    incr bound_flips;
                    remaining := !remaining -. (a *. range);
                    incr tpos
                  end
                  else walking := false
                done;
                (* Harris-style second pass: the strict minimum ratio
                   often rides a tiny |alpha|, and t = viol / alpha then
                   throws the entering variable far past its opposite
                   bound — the violation migrates instead of shrinking.
                   Admit every candidate whose reduced cost would go
                   infeasible by at most dtol at the head's ratio and
                   enter the one with the largest pivot; the closing
                   primal run repairs the bounded slack. *)
                let je =
                  let r_e = dc_ratio.(!tpos) in
                  let dtol = 1e-7 in
                  let best_a = ref dc_alpha.(!tpos)
                  and best_j = ref dc_j.(!tpos) in
                  for q = !tpos + 1 to nc - 1 do
                    let a = dc_alpha.(q) in
                    if a > !best_a && (dc_ratio.(q) *. a) -. (r_e *. a) <= dtol
                    then begin
                      best_a := a;
                      best_j := dc_j.(q)
                    end
                  done;
                  !best_j
                in
                (if !nflip > 0 then
                   (* flips are applied newest-first, matching the
                      prepend order the list implementation used, so the
                      accumulation order (and its rounding) is
                      unchanged *)
                   if not hyper then begin
                     Array.fill bwork 0 m 0.0;
                     for f = !nflip - 1 downto 0 do
                       let j = df_j.(f) and delta = df_delta.(f) in
                       col_iter j (fun i v ->
                           bwork.(i) <- bwork.(i) +. (delta *. v))
                     done;
                     (match !ft with
                     | Some u ->
                         Lu.Ft.ftran_d u ~keep_spike:false ~b:bwork ~x:w
                           ~scratch
                     | None -> Lu.solve !lu ~b:bwork ~x:w ~scratch);
                     w_n := -1;
                     incr c_ftran_dn;
                     apply_etas_to_w ();
                     for k = 0 to m - 1 do
                       x_basic.(k) <- x_basic.(k) -. w.(k)
                     done
                   end
                   else begin
                     (* combined flip delta is sparse: build it on the
                        stamped scratch (columns may share rows) and
                        update x_basic over the solve's support *)
                     incr sb_epoch;
                     let ep = !sb_epoch in
                     let nb = ref 0 in
                     for f = !nflip - 1 downto 0 do
                       let j = df_j.(f) and delta = df_delta.(f) in
                       col_iter j (fun i v ->
                           if sb_in.(i) <> ep then begin
                             sb_in.(i) <- ep;
                             sb_ind.(!nb) <- i;
                             incr nb
                           end;
                           sb.(i) <- sb.(i) +. (delta *. v))
                     done;
                     let nb0 = !nb in
                     solve_into_w nb0;
                     for s2 = 0 to nb0 - 1 do
                       sb.(sb_ind.(s2)) <- 0.0
                     done;
                     let sup_n = if !w_n < 0 then m else !w_n in
                     for ti = 0 to sup_n - 1 do
                       let k = if !w_n < 0 then ti else w_ind.(ti) in
                       x_basic.(k) <- x_basic.(k) -. w.(k)
                     done
                   end);
                  ftran ~keep_spike:true je;
                  if Float.abs w.(r) < 1e-8 then begin
                    (* numerically unusable pivot: rebuild the
                       factorization once and retry the iteration *)
                    incr bad_pivots;
                    refactorize 0;
                    recompute_d ();
                    if !bad_pivots > 3 then begin
                      if stats_on then
                        Printf.eprintf
                          "LP_STATS: dual bad pivots (r=%d w_r=%g)\n%!" r
                          w.(r);
                      outcome := `Numerical
                    end
                  end
                  else begin
                    bad_pivots := 0;
                    let b = basis.(r) in
                    let bound = if !below then lo.(b) else hi.(b) in
                    let t = (x_basic.(r) -. bound) /. w.(r) in
                    let sup_n = if !w_n < 0 then m else !w_n in
                    for ti = 0 to sup_n - 1 do
                      let k = if !w_n < 0 then ti else w_ind.(ti) in
                      x_basic.(k) <- x_basic.(k) -. (t *. w.(k))
                    done;
                    (* dual step: d_j -= theta * alpha_j, nonzero only on
                       the gathered columns; the leaving column's alpha is
                       exactly 1 (it is row r's basic), so its new
                       reduced cost is -theta *)
                    let theta = d.(je) /. w.(r) in
                    for tk = 0 to !ntouched - 1 do
                      let j = touched.(tk) in
                      d.(j) <- d.(j) -. (theta *. alpha_acc.(j))
                    done;
                    d.(je) <- 0.0;
                    d.(b) <- -.theta;
                    let entering_val = nbval je +. t in
                    where.(b) <- -1;
                    nb_at.(b) <- (if !below then 'l' else 'u');
                    basis.(r) <- je;
                    where.(je) <- r;
                    x_basic.(r) <- entering_val;
                    pivot_update w r;
                    check_invariants ()
                  end;
                  t_ratio := !t_ratio +. clock () -. tratio0
              end
            end
          end
        done;
        !outcome
      in
      (* --- phases ------------------------------------------------------- *)
      let status = ref Optimal in
      (match warm_opt with
      | None ->
          (* phase 1 *)
          if !nart > 0 then begin
            for k = 0 to !nart - 1 do
              cost.(nv + m + k) <- 1.0
            done;
            (match run_phase ~p1:true () with
            | `Phase_done ->
                let infeas = ref 0.0 in
                for k = 0 to m - 1 do
                  if basis.(k) >= nv + m then infeas := !infeas +. x_basic.(k)
                done;
                for k = 0 to !nart - 1 do
                  let aj = nv + m + k in
                  if where.(aj) < 0 then infeas := !infeas +. nbval aj
                done;
                if !infeas > 1e-6 then status := Infeasible
            | `Unbounded ->
                failwith "Revised: phase 1 unbounded (internal error)"
            | `Iter_limit -> status := Iter_limit
            | `Run -> assert false);
            (* Fix artificials at zero for phase 2. *)
            for k = 0 to !nart - 1 do
              let aj = nv + m + k in
              cost.(aj) <- 0.0;
              hi.(aj) <- 0.0;
              if where.(aj) < 0 then nb_at.(aj) <- 'l'
            done
          end;
          (* phase 2 *)
          if !status = Optimal then begin
            Array.blit p.obj 0 cost 0 nv;
            bland := false;
            degen := 0;
            match run_phase () with
            | `Phase_done -> ()
            | `Unbounded -> status := Unbounded
            | `Iter_limit -> status := Iter_limit
            | `Run -> assert false
          end
      | Some _ ->
          Array.blit p.obj 0 cost 0 nv;
          let primal_viol () =
            let v = ref 0.0 in
            for k = 0 to m - 1 do
              let b = basis.(k) in
              if lo.(b) -. x_basic.(k) > !v then v := lo.(b) -. x_basic.(k);
              if x_basic.(k) -. hi.(b) > !v then v := x_basic.(k) -. hi.(b)
            done;
            !v
          in
          let finish_primal () =
            (* The dual loop (or the repair alone) reached a primal-feasible
               point; a primal phase-2 run from here certifies optimality
               and cleans up any tolerance-level dual infeasibility left by
               the status repair. *)
            bland := false;
            degen := 0;
            match run_phase () with
            | `Phase_done -> ()
            | `Unbounded -> status := Unbounded
            | `Iter_limit -> status := Iter_limit
            | `Run -> assert false
          in
          (* Primal-first warm start: when the caller knows the basis is
             primal feasible for the new problem (column generation: the
             objective and bounds are unchanged, only columns were added
             at their lower bound), entering phase 2 directly lets the
             primal pick among the new columns selectively.  The default
             dual-feasibility repair would instead flip every fresh
             negative-reduced-cost column to its opposite bound and then
             grind the resulting primal infeasibility back out with dual
             pivots — a storm of busywork proportional to the number of
             appended columns. *)
          let primal_ready =
            warm_primal
            && begin
                 recompute_x_basic ();
                 primal_viol () <= feas_tol
               end
          in
          if primal_ready then finish_primal ()
          else begin
          (* Dual-feasibility repair: a boxed nonbasic sitting at the wrong
             bound for its reduced-cost sign is flipped to the other bound;
             a non-boxed one with the wrong sign cannot be repaired without
             pivoting, so fall back to the cold path. *)
          for k = 0 to m - 1 do
            cb.(k) <- cost.(basis.(k))
          done;
          btran cb y;
          for j = 0 to nv + m - 1 do
            if where.(j) < 0 && lo.(j) < hi.(j) then begin
              let d = cost.(j) -. col_dot j y in
              let tol = opt_tol *. (1.0 +. Float.abs cost.(j)) in
              match nb_at.(j) with
              | 'l' when d < -.tol ->
                  if Float.is_finite hi.(j) then nb_at.(j) <- 'u'
                  else begin
                    if stats_on then
                      Printf.eprintf "LP_STATS: fallback repair j=%d at=l d=%g\n%!" j d;
                    raise Warm_fallback
                  end
              | 'u' when d > tol ->
                  if Float.is_finite lo.(j) then nb_at.(j) <- 'l'
                  else begin
                    if stats_on then
                      Printf.eprintf "LP_STATS: fallback repair j=%d at=u d=%g\n%!" j d;
                    raise Warm_fallback
                  end
              | 'f' when Float.abs d > tol ->
                  if stats_on then
                    Printf.eprintf "LP_STATS: fallback repair j=%d at=f d=%g\n%!" j d;
                  raise Warm_fallback
              | _ -> ()
            end
          done;
          recompute_x_basic ();
          if primal_viol () <= feas_tol then finish_primal ()
          else begin
            (* Dual-degenerate warm bases — many nonbasic reduced costs
               exactly zero, typical when the previous cap left the power
               rows slack — stall the dual objective (theta_d = 0 steps)
               and can cycle.  A deterministic dual-feasible cost
               perturbation gives distinct, strictly positive ratios; the
               closing primal run restores the exact costs, so the
               perturbation never reaches the reported solution. *)
            for j = 0 to nv + m - 1 do
              if where.(j) < 0 && lo.(j) < hi.(j) then begin
                let eps =
                  1e-7
                  *. (1.0 +. Float.abs cost.(j))
                  *. (1.0 +. (Float.of_int (j mod 97) /. 97.0))
                in
                match nb_at.(j) with
                | 'l' -> cost.(j) <- cost.(j) +. eps
                | 'u' -> cost.(j) <- cost.(j) -. eps
                | _ -> ()
              end
            done;
            let dual_res = run_dual () in
            Array.blit p.obj 0 cost 0 nv;
            Array.fill cost nv (Array.length cost - nv) 0.0;
            match dual_res with
            | `Optimal -> finish_primal ()
            | `Primal_infeasible -> status := Infeasible
            | `Iter_limit -> status := Iter_limit
            | `Numerical ->
                if stats_on then
                  Printf.eprintf "LP_STATS: fallback dual numerical\n%!";
                raise Warm_fallback
            | `Run -> assert false
          end
          end);
      (* --- extraction --------------------------------------------------- *)
      (* The reported solution must depend only on the final basis, never
         on the pivot path that reached it: a warm re-solve ending at the
         same basis as a cold solve has to agree to the last bit.  Sort
         the basis into canonical (column-index) order, drop the eta file
         by refactorizing, and recompute the primal point from the fresh
         factors. *)
      if !status = Optimal then begin
        Array.sort Int.compare basis;
        for k = 0 to m - 1 do
          where.(basis.(k)) <- k
        done;
        refactorize 0
      end;
      (match !ft with
      | Some u ->
          if Lu.Ft.fill_hwm u > !fill_max then fill_max := Lu.Ft.fill_hwm u
      | None -> ());
      if stats_on then
        Printf.eprintf
          "LP_STATS: iters=%d factor=%.2fs (%d, avg nnz %d) ftran=%.2fs \
           btran=%.2fs price=%.2fs ratio+update=%.2fs %s\n\
           %!"
          !iters !t_factor !n_factor
          (if !n_factor > 0 then !lu_nnz_total / !n_factor else 0)
          !t_ftran !t_btran !t_price !t_ratio
          (if ftmode then
             Printf.sprintf "ft_updates=%d fill_max=%.2f cap=%d limit=%g%s"
               !c_ft_updates !fill_max ft_cap refac_lim
               (if small then " mode=small-dense" else "")
           else Printf.sprintf "etas_max=%d" eta_max);
      let x = Array.make nv 0.0 in
      for j = 0 to nv - 1 do
        if where.(j) >= 0 then x.(j) <- x_basic.(where.(j)) else x.(j) <- nbval j
      done;
      for k = 0 to m - 1 do
        cb.(k) <- cost.(basis.(k))
      done;
      btran cb y;
      let dj = Array.init nv (fun j -> p.obj.(j) -. col_dot j y) in
      let basis_out =
        (* A clean basis mentions only structural and slack columns.  An
           artificial still basic (necessarily at zero after a feasible
           phase 1) is stood in for by its row's slack when that slack is
           nonbasic; otherwise no reusable basis is reported. *)
        let ok = ref true in
        let bas = Array.make m 0 in
        for k = 0 to m - 1 do
          let j = basis.(k) in
          if j < nv + m then bas.(k) <- j
          else begin
            let s = nv + art_row.(j - nv - m) in
            if where.(s) < 0 then bas.(k) <- s else ok := false
          end
        done;
        if not !ok then None
        else begin
          let vstat = Array.make (nv + m) 'l' in
          for j = 0 to nv + m - 1 do
            vstat.(j) <- (if where.(j) >= 0 then 'b' else nb_at.(j))
          done;
          Array.iter (fun j -> vstat.(j) <- 'b') bas;
          Some { basic = bas; vstat }
        end
      in
      Stats.note_solve
        ~warm:(warm_opt <> None)
        ~iterations:!iters ~dual:!dual_pivots ~flips:!bound_flips
        ~factors:!n_factor
        ~wall:(Unix.gettimeofday () -. t_solve0);
      Stats.note_kernels ~ftran_sp:!c_ftran_sp ~ftran_dn:!c_ftran_dn
        ~btran_sp:!c_btran_sp ~btran_dn:!c_btran_dn ~resets:!c_devex_resets
        ~refreshes:!c_refreshes;
      Stats.note_ft ~updates:!c_ft_updates ~fill_max:!fill_max
        ~small_dense:(if small then 1 else 0);
      {
        status = !status;
        objective = Model.objective_value p x;
        x;
        y = Array.copy y;
        dj;
        iterations = !iters;
        basis = basis_out;
      }
    in
    match warm with
    | None -> attempt None
    | Some wb -> (
        try attempt (Some wb)
        with
        | Warm_fallback ->
            Stats.note_fallback ();
            attempt None
        | Failure msg ->
            if Sys.getenv_opt "LP_STATS" <> None then
              Printf.eprintf "LP_STATS: fallback failure %s\n%!" msg;
            Stats.note_fallback ();
            attempt None)
  end

let solve ?max_iter ?feas_tol ?opt_tol ?lb ?ub ?rhs ?warm ?warm_primal
    ?analysis ?bands (p : Model.problem) : result =
  Putil.Obs.span ~cat:"lp"
    ~args:
      [
        ("warm", if warm = None then "false" else "true");
        ("rows", string_of_int p.nr);
        ("cols", string_of_int p.nv);
      ]
    "revised.solve"
    (fun () ->
      solve_impl ?max_iter ?feas_tol ?opt_tol ?lb ?ub ?rhs ?warm ?warm_primal
        ?analysis ?bands p)
