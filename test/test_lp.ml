open Mapqn_lp

let check_obj = Alcotest.(check (float 1e-6))

let solution = function
  | Simplex.Optimal s -> s
  | Simplex.Infeasible -> Alcotest.fail "unexpected Infeasible"
  | Simplex.Unbounded -> Alcotest.fail "unexpected Unbounded"
  | Simplex.Iteration_limit -> Alcotest.fail "unexpected Iteration_limit"

(* ---------------- basic textbook LPs ---------------- *)

let test_max_2d () =
  (* max 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18 -> 36 at (2,6). *)
  let m = Lp_model.create () in
  let x = Lp_model.add_var ~name:"x" m in
  let y = Lp_model.add_var ~name:"y" m in
  Lp_model.add_row m [ (x, 1.) ] Lp_model.Le 4.;
  Lp_model.add_row m [ (y, 2.) ] Lp_model.Le 12.;
  Lp_model.add_row m [ (x, 3.); (y, 2.) ] Lp_model.Le 18.;
  let s = solution (Simplex.solve m Simplex.Maximize [ (x, 3.); (y, 5.) ]) in
  check_obj "objective" 36. s.objective;
  check_obj "x" 2. s.values.((x :> int));
  check_obj "y" 6. s.values.((y :> int))

let test_min_with_equalities () =
  (* min x + y st x + 2y = 4, 3x + y = 7 -> x=2, y=1, obj 3. *)
  let m = Lp_model.create () in
  let x = Lp_model.add_var m and y = Lp_model.add_var m in
  Lp_model.add_row m [ (x, 1.); (y, 2.) ] Lp_model.Eq 4.;
  Lp_model.add_row m [ (x, 3.); (y, 1.) ] Lp_model.Eq 7.;
  let s = solution (Simplex.solve m Simplex.Minimize [ (x, 1.); (y, 1.) ]) in
  check_obj "objective" 3. s.objective;
  check_obj "x" 2. s.values.((x :> int));
  check_obj "y" 1. s.values.((y :> int))

let test_ge_constraints () =
  (* min 2x + 3y st x + y >= 10, x >= 2 -> obj 20 at (10, 0). *)
  let m = Lp_model.create () in
  let x = Lp_model.add_var m and y = Lp_model.add_var m in
  Lp_model.add_row m [ (x, 1.); (y, 1.) ] Lp_model.Ge 10.;
  Lp_model.add_row m [ (x, 1.) ] Lp_model.Ge 2.;
  let s = solution (Simplex.solve m Simplex.Minimize [ (x, 2.); (y, 3.) ]) in
  check_obj "objective" 20. s.objective

let test_infeasible () =
  let m = Lp_model.create () in
  let x = Lp_model.add_var m in
  Lp_model.add_row m [ (x, 1.) ] Lp_model.Le 1.;
  Lp_model.add_row m [ (x, 1.) ] Lp_model.Ge 2.;
  match Simplex.solve m Simplex.Minimize [ (x, 1.) ] with
  | Simplex.Infeasible -> ()
  | _ -> Alcotest.fail "expected Infeasible"

let test_unbounded () =
  let m = Lp_model.create () in
  let x = Lp_model.add_var m in
  Lp_model.add_row m [ (x, 1.) ] Lp_model.Ge 1.;
  match Simplex.solve m Simplex.Maximize [ (x, 1.) ] with
  | Simplex.Unbounded -> ()
  | _ -> Alcotest.fail "expected Unbounded"

let test_negative_rhs () =
  (* Constraint with negative rhs exercises the sign normalization. *)
  let m = Lp_model.create () in
  let x = Lp_model.add_var m in
  Lp_model.add_row m [ (x, -1.) ] Lp_model.Le (-2.);
  (* i.e. x >= 2 *)
  let s = solution (Simplex.solve m Simplex.Minimize [ (x, 1.) ]) in
  check_obj "x = 2" 2. s.objective

let test_var_upper_bound () =
  let m = Lp_model.create () in
  let x = Lp_model.add_var ~ub:3.5 m in
  let s = solution (Simplex.solve m Simplex.Maximize [ (x, 2.) ]) in
  check_obj "respects ub" 7. s.objective

let test_var_lower_bound_shift () =
  let m = Lp_model.create () in
  let x = Lp_model.add_var ~lb:5. m in
  let y = Lp_model.add_var m in
  Lp_model.add_row m [ (x, 1.); (y, 1.) ] Lp_model.Le 8.;
  let s = solution (Simplex.solve m Simplex.Maximize [ (y, 1.) ]) in
  check_obj "y limited by shifted x" 3. s.objective;
  check_obj "x at its lower bound" 5. s.values.((x :> int))

let test_free_variable () =
  (* min x st x >= -7 with x free -> -7. *)
  let m = Lp_model.create () in
  let x = Lp_model.add_var ~lb:neg_infinity m in
  Lp_model.add_row m [ (x, 1.) ] Lp_model.Ge (-7.);
  let s = solution (Simplex.solve m Simplex.Minimize [ (x, 1.) ]) in
  check_obj "negative optimum" (-7.) s.objective

let test_degenerate () =
  (* Klee-Minty-ish degenerate corner; checks anti-cycling. *)
  let m = Lp_model.create () in
  let x = Lp_model.add_var m and y = Lp_model.add_var m and z = Lp_model.add_var m in
  Lp_model.add_row m [ (x, 1.) ] Lp_model.Le 1.;
  Lp_model.add_row m [ (x, 4.); (y, 1.) ] Lp_model.Le 8.;
  Lp_model.add_row m [ (x, 8.); (y, 4.); (z, 1.) ] Lp_model.Le 32.;
  let s =
    solution (Simplex.solve m Simplex.Maximize [ (x, 4.); (y, 2.); (z, 1.) ])
  in
  check_obj "klee-minty optimum" 32. s.objective

let test_redundant_equalities () =
  (* The same equality twice plus an implied one: phase 1 must drop the
     dependent rows rather than fail. *)
  let m = Lp_model.create () in
  let x = Lp_model.add_var m and y = Lp_model.add_var m in
  Lp_model.add_row m [ (x, 1.); (y, 1.) ] Lp_model.Eq 2.;
  Lp_model.add_row m [ (x, 1.); (y, 1.) ] Lp_model.Eq 2.;
  Lp_model.add_row m [ (x, 2.); (y, 2.) ] Lp_model.Eq 4.;
  let s = solution (Simplex.solve m Simplex.Maximize [ (x, 1.) ]) in
  check_obj "x can reach 2" 2. s.objective

let test_equality_normalization_lp () =
  (* A probability-style LP: sum p_i = 1, p >= 0; max p_2 = 1. *)
  let m = Lp_model.create () in
  let ps = Array.init 4 (fun _ -> Lp_model.add_var m) in
  Lp_model.add_row m (Array.to_list (Array.map (fun p -> (p, 1.)) ps)) Lp_model.Eq 1.;
  let s = solution (Simplex.solve m Simplex.Maximize [ (ps.(2), 1.) ]) in
  check_obj "max prob" 1. s.objective;
  let s = solution (Simplex.solve m Simplex.Minimize [ (ps.(2), 1.) ]) in
  check_obj "min prob" 0. s.objective

let test_prepare_reuse () =
  let m = Lp_model.create () in
  let x = Lp_model.add_var m and y = Lp_model.add_var m in
  Lp_model.add_row m [ (x, 1.); (y, 1.) ] Lp_model.Eq 10.;
  match Simplex.prepare m with
  | Error _ -> Alcotest.fail "prepare failed"
  | Ok prepared ->
    let smax = solution (Simplex.optimize prepared Simplex.Maximize [ (x, 1.) ]) in
    let smin = solution (Simplex.optimize prepared Simplex.Minimize [ (x, 1.) ]) in
    check_obj "max x" 10. smax.objective;
    check_obj "min x" 0. smin.objective;
    (* Re-optimizing after previous optimizations must not corrupt state. *)
    let again = solution (Simplex.optimize prepared Simplex.Maximize [ (y, 1.) ]) in
    check_obj "max y" 10. again.objective

let test_check_feasible () =
  let m = Lp_model.create () in
  let x = Lp_model.add_var m and y = Lp_model.add_var m in
  Lp_model.add_row m [ (x, 1.); (y, 1.) ] Lp_model.Eq 1.;
  (match Lp_model.check_feasible m [| 0.4; 0.6 |] with
  | Ok () -> ()
  | Error e -> Alcotest.failf "expected feasible: %s" e);
  (match Lp_model.check_feasible m [| 0.4; 0.7 |] with
  | Ok () -> Alcotest.fail "expected violation"
  | Error _ -> ());
  match Lp_model.check_feasible m [| -0.5; 1.5 |] with
  | Ok () -> Alcotest.fail "expected bound violation"
  | Error _ -> ()

let test_duplicate_terms_summed () =
  (* add_row with two terms on the same variable behaves like their sum. *)
  let m = Lp_model.create () in
  let x = Lp_model.add_var m in
  Lp_model.add_row m [ (x, 1.); (x, 1.) ] Lp_model.Le 4.;
  let s = solution (Simplex.solve m Simplex.Maximize [ (x, 1.) ]) in
  check_obj "2x <= 4" 2. s.objective

let test_model_pp () =
  let m = Lp_model.create () in
  let x = Lp_model.add_var ~name:"x" ~ub:5. m in
  let y = Lp_model.add_var ~name:"y" m in
  Lp_model.add_row ~name:"cap" m [ (x, 1.); (y, 2.) ] Lp_model.Le 10.;
  let rendered = Format.asprintf "%a" Lp_model.pp m in
  List.iter
    (fun needle ->
      if not (String.length rendered > 0 && String.length needle > 0) then ()
      else
        let found =
          let nl = String.length needle and rl = String.length rendered in
          let rec go i = i + nl <= rl && (String.sub rendered i nl = needle || go (i + 1)) in
          go 0
        in
        if not found then Alcotest.failf "missing %S in rendering" needle)
    [ "2 variables"; "x <= 5"; "cap:"; "2 y <= 10" ]

let test_duals_textbook () =
  (* Wyndor Glass (Hillier & Lieberman): max 3x + 5y with x <= 4, 2y <= 12,
     3x + 2y <= 18 has shadow prices (0, 3/2, 1). *)
  let m = Lp_model.create () in
  let x = Lp_model.add_var m and y = Lp_model.add_var m in
  Lp_model.add_row m [ (x, 1.) ] Lp_model.Le 4.;
  Lp_model.add_row m [ (y, 2.) ] Lp_model.Le 12.;
  Lp_model.add_row m [ (x, 3.); (y, 2.) ] Lp_model.Le 18.;
  let s = solution (Simplex.solve m Simplex.Maximize [ (x, 3.); (y, 5.) ]) in
  Alcotest.(check int) "three duals" 3 (Array.length s.Simplex.duals);
  check_obj "slack constraint dual" 0. s.Simplex.duals.(0);
  check_obj "second dual" 1.5 s.Simplex.duals.(1);
  check_obj "third dual" 1. s.Simplex.duals.(2)

let test_strong_duality_equalities () =
  (* For equality-constrained LPs over x >= 0, strong duality gives
     objective = Σ duals·rhs at the optimum. *)
  let m = Lp_model.create () in
  let x = Lp_model.add_var m and y = Lp_model.add_var m and z = Lp_model.add_var m in
  Lp_model.add_row m [ (x, 1.); (y, 1.); (z, 1.) ] Lp_model.Eq 6.;
  Lp_model.add_row m [ (x, 1.); (y, -1.) ] Lp_model.Eq 1.;
  let s =
    solution (Simplex.solve m Simplex.Minimize [ (x, 2.); (y, 3.); (z, 1.) ])
  in
  let dual_obj = (s.Simplex.duals.(0) *. 6.) +. (s.Simplex.duals.(1) *. 1.) in
  Alcotest.(check (float 1e-4)) "strong duality" s.Simplex.objective dual_obj

let prop_strong_duality_random_eq =
  (* Random feasible equality LPs (b = A x0 with x0 > 0 interior-ish):
     primal and dual objectives agree at the reported optimum. *)
  QCheck.Test.make ~name:"strong duality on random equality LPs" ~count:100
    QCheck.(pair (int_range 1 5) (int_range 0 1_000_000))
    (fun (nvars, seed) ->
      let rng = Mapqn_prng.Rng.create ~seed in
      let nrows = max 1 (nvars - 1) in
      let m = Lp_model.create () in
      let vars = Array.init nvars (fun _ -> Lp_model.add_var m) in
      let x0 = Array.init nvars (fun _ -> Mapqn_prng.Dist.uniform rng ~lo:0.5 ~hi:2.) in
      let rhs = Array.make nrows 0. in
      for i = 0 to nrows - 1 do
        let coeffs =
          Array.init nvars (fun _ -> Mapqn_prng.Dist.uniform rng ~lo:(-1.) ~hi:2.)
        in
        rhs.(i) <- Mapqn_util.Ksum.dot coeffs x0;
        Lp_model.add_row m
          (Array.to_list (Array.mapi (fun j c -> (vars.(j), c)) coeffs))
          Lp_model.Eq rhs.(i)
      done;
      let c = Array.init nvars (fun _ -> Mapqn_prng.Dist.uniform rng ~lo:0.1 ~hi:2.) in
      let obj = Array.to_list (Array.mapi (fun j v -> (v, c.(j))) vars) in
      match Simplex.solve m Simplex.Minimize obj with
      | Simplex.Optimal s ->
        let dual_obj = Mapqn_util.Ksum.dot s.Simplex.duals rhs in
        (* Reduced costs of nonbasic variables are >= 0 at a minimum, so
           the dual objective can undershoot only by numerical margin. *)
        Float.abs (dual_obj -. s.Simplex.objective)
        <= 1e-4 *. Float.max 1. (Float.abs s.Simplex.objective)
      | Simplex.Unbounded | Simplex.Iteration_limit -> true
      | Simplex.Infeasible -> false)

(* ---------------- properties ---------------- *)

(* Random LPs built to be feasible by construction: pick a random point x0
   >= 0, random A, set b = A x0 with <= rows. Then:
   - the solver must report Optimal (never Infeasible);
   - the optimum must be >= the objective at x0 for Maximize;
   - the returned point must be feasible. *)
let gen_feasible_lp =
  QCheck.Gen.(
    let* nvars = int_range 1 6 in
    let* nrows = int_range 1 6 in
    let* seed = int_range 0 1_000_000 in
    return (nvars, nrows, seed))

let build_random_lp (nvars, nrows, seed) =
  let rng = Mapqn_prng.Rng.create ~seed in
  let m = Lp_model.create () in
  let vars = Array.init nvars (fun _ -> Lp_model.add_var m) in
  let x0 = Array.init nvars (fun _ -> Mapqn_prng.Dist.uniform rng ~lo:0. ~hi:3.) in
  for _ = 1 to nrows do
    let coeffs =
      Array.init nvars (fun _ -> Mapqn_prng.Dist.uniform rng ~lo:(-2.) ~hi:2.)
    in
    let b = Mapqn_util.Ksum.dot coeffs x0 in
    let slackened = b +. Mapqn_prng.Dist.uniform rng ~lo:0. ~hi:1. in
    Lp_model.add_row m
      (Array.to_list (Array.mapi (fun i c -> (vars.(i), c)) coeffs))
      Lp_model.Le slackened
  done;
  let c = Array.init nvars (fun _ -> Mapqn_prng.Dist.uniform rng ~lo:(-1.) ~hi:1.) in
  (m, vars, x0, c)

let prop_feasible_lp_not_infeasible =
  QCheck.Test.make ~name:"constructed-feasible LPs are never Infeasible" ~count:150
    (QCheck.make gen_feasible_lp) (fun params ->
      let m, vars, x0, c = build_random_lp params in
      let obj = Array.to_list (Array.mapi (fun i v -> (v, c.(i))) vars) in
      match Simplex.solve m Simplex.Maximize obj with
      | Simplex.Infeasible -> false
      | Simplex.Unbounded | Simplex.Iteration_limit -> true (* allowed *)
      | Simplex.Optimal s ->
        let at_x0 = Mapqn_util.Ksum.dot c x0 in
        (* Optimal >= value at the known feasible point. *)
        s.objective >= at_x0 -. 1e-6)

let prop_solution_is_feasible =
  QCheck.Test.make ~name:"returned optimum satisfies the model" ~count:150
    (QCheck.make gen_feasible_lp) (fun params ->
      let m, vars, _, c = build_random_lp params in
      let obj = Array.to_list (Array.mapi (fun i v -> (v, c.(i))) vars) in
      match Simplex.solve m Simplex.Maximize obj with
      | Simplex.Optimal s -> (
        match Lp_model.check_feasible ~tol:1e-6 m s.values with
        | Ok () -> true
        | Error _ -> false)
      | Simplex.Infeasible -> false
      | Simplex.Unbounded | Simplex.Iteration_limit -> true)

let prop_min_max_bracket =
  QCheck.Test.make ~name:"min <= max over the same region" ~count:100
    (QCheck.make gen_feasible_lp) (fun params ->
      let m, vars, _, c = build_random_lp params in
      (* Bound the box so both directions are bounded. *)
      Array.iter (fun v -> Lp_model.add_row m [ (v, 1.) ] Lp_model.Le 100.) vars;
      let obj = Array.to_list (Array.mapi (fun i v -> (v, c.(i))) vars) in
      match (Simplex.solve m Simplex.Minimize obj, Simplex.solve m Simplex.Maximize obj) with
      | Simplex.Optimal lo, Simplex.Optimal hi -> lo.objective <= hi.objective +. 1e-6
      | _, _ -> true)

(* ---------------- revised simplex ---------------- *)

let test_revised_textbook () =
  (* Same LP as test_max_2d, through the sparse backend. *)
  let m = Lp_model.create () in
  let x = Lp_model.add_var ~name:"x" m in
  let y = Lp_model.add_var ~name:"y" m in
  Lp_model.add_row m [ (x, 1.) ] Lp_model.Le 4.;
  Lp_model.add_row m [ (y, 2.) ] Lp_model.Le 12.;
  Lp_model.add_row m [ (x, 3.); (y, 2.) ] Lp_model.Le 18.;
  let s = solution (Revised.solve m Simplex.Maximize [ (x, 3.); (y, 5.) ]) in
  check_obj "objective" 36. s.objective;
  check_obj "x" 2. s.values.((x :> int));
  check_obj "y" 6. s.values.((y :> int));
  let s = solution (Revised.solve m Simplex.Minimize [ (x, 1.); (y, 1.) ]) in
  check_obj "origin" 0. s.objective

let test_revised_infeasible_unbounded () =
  let m = Lp_model.create () in
  let x = Lp_model.add_var m in
  Lp_model.add_row m [ (x, 1.) ] Lp_model.Le 1.;
  Lp_model.add_row m [ (x, 1.) ] Lp_model.Ge 2.;
  (match Revised.solve m Simplex.Minimize [ (x, 1.) ] with
  | Simplex.Infeasible -> ()
  | _ -> Alcotest.fail "expected Infeasible");
  let m = Lp_model.create () in
  let x = Lp_model.add_var m in
  Lp_model.add_row m [ (x, 1.) ] Lp_model.Ge 1.;
  match Revised.solve m Simplex.Maximize [ (x, 1.) ] with
  | Simplex.Unbounded -> ()
  | _ -> Alcotest.fail "expected Unbounded"

let test_revised_warm_start () =
  (* One prepared state, many objectives: each reoptimization starts from
     the basis the previous one left, and reset restores phase 1. *)
  let m = Lp_model.create () in
  let x = Lp_model.add_var m and y = Lp_model.add_var m in
  Lp_model.add_row m [ (x, 1.) ] Lp_model.Le 4.;
  Lp_model.add_row m [ (y, 2.) ] Lp_model.Le 12.;
  Lp_model.add_row m [ (x, 3.); (y, 2.) ] Lp_model.Le 18.;
  match Revised.prepare m with
  | Error _ -> Alcotest.fail "prepare failed"
  | Ok t ->
    let opt dir obj = (solution (Revised.optimize t dir obj)).Simplex.objective in
    check_obj "max 3x+5y" 36. (opt Simplex.Maximize [ (x, 3.); (y, 5.) ]);
    check_obj "min 3x+5y (warm)" 0. (opt Simplex.Minimize [ (x, 3.); (y, 5.) ]);
    check_obj "max x (warm)" 4. (opt Simplex.Maximize [ (x, 1.) ]);
    check_obj "max 3x+5y again" 36. (opt Simplex.Maximize [ (x, 3.); (y, 5.) ]);
    Revised.reset t;
    check_obj "after reset" 36. (opt Simplex.Maximize [ (x, 3.); (y, 5.) ])

(* Forrest–Tomlin-style eta updates vs fresh factorizations: forcing a
   rebuild of the eta file between (and during) optimizations must not
   change any objective — the eta file is a representation of the basis,
   never part of the answer. *)
let test_ft_updates_vs_fresh_refactorization () =
  let run ~fresh params =
    let m, vars, _, c = build_random_lp params in
    Array.iter (fun v -> Lp_model.add_row m [ (v, 1.) ] Lp_model.Le 50.) vars;
    let obj = Array.to_list (Array.mapi (fun i v -> (v, c.(i))) vars) in
    match Revised.prepare m with
    | Error _ -> Alcotest.fail "prepare failed"
    | Ok t ->
      List.map
        (fun dir ->
          if fresh then Revised.force_refactor t;
          (solution (Revised.optimize t dir obj)).Simplex.objective)
        [ Simplex.Maximize; Simplex.Minimize; Simplex.Maximize ]
  in
  List.iter
    (fun seed ->
      let params = (6, 8, seed) in
      List.iter2
        (fun a b ->
          Alcotest.(check (float 1e-7))
            (Printf.sprintf "seed %d: eta-updated = freshly factorized" seed)
            a b)
        (run ~fresh:false params) (run ~fresh:true params))
    [ 11; 42; 1234; 987654 ]

(* The stability trigger: a zero drift tolerance checked at every pivot
   turns every incremental-vs-fresh divergence into a forced
   refactorization. The answers must not move, and the refactorization
   count must not decrease relative to the default policy. *)
let test_reinversion_stability_trigger () =
  let build () =
    let params = (6, 8, 2024) in
    let m, vars, _, c = build_random_lp params in
    Array.iter (fun v -> Lp_model.add_row m [ (v, 1.) ] Lp_model.Le 50.) vars;
    let obj = Array.to_list (Array.mapi (fun i v -> (v, c.(i))) vars) in
    match Revised.prepare m with
    | Error _ -> Alcotest.fail "prepare failed"
    | Ok t -> (t, obj)
  in
  let t_default, obj = build () in
  let t_eager, _ = build () in
  Revised.set_reinversion ~drift_tol:0. ~check_interval:1 t_eager;
  List.iter
    (fun dir ->
      let a = (solution (Revised.optimize t_default dir obj)).Simplex.objective in
      let b = (solution (Revised.optimize t_eager dir obj)).Simplex.objective in
      Alcotest.(check (float 1e-7)) "objective unchanged by eager reinversion" a b)
    [ Simplex.Maximize; Simplex.Minimize ];
  let sd = Revised.stats t_default and se = Revised.stats t_eager in
  Alcotest.(check bool)
    (Printf.sprintf "eager policy refactorizes at least as often (%d vs %d)"
       se.Revised.refactorizations sd.Revised.refactorizations)
    true
    (se.Revised.refactorizations >= sd.Revised.refactorizations);
  Alcotest.(check int) "same number of solves" sd.Revised.solves se.Revised.solves

(* ---------------- basis factorization ---------------- *)

(* [Revised.factor_residual] after a fresh factorization: the eta file
   must reproduce B and Bᵀ on every unit vector to roundoff. *)
let check_fresh_factorization name t =
  Revised.force_refactor t;
  let r = Revised.factor_residual t in
  Alcotest.(check bool) (Printf.sprintf "%s: residual %.3g <= 1e-10" name r) true (r <= 1e-10)

let prepared name m =
  match Revised.prepare m with
  | Ok t -> t
  | Error e -> Alcotest.fail (name ^ ": " ^ Simplex.prepare_error_to_string e)

let test_factor_all_slack () =
  (* Only <= rows with nonnegative right-hand sides: phase 1 starts and
     ends on the slack basis, which the singleton pass factorizes alone. *)
  let m = Lp_model.create () in
  let vars = Array.init 6 (fun _ -> Lp_model.add_var m) in
  for r = 0 to 8 do
    Lp_model.add_row m
      (Array.to_list
         (Array.mapi (fun j v -> (v, float_of_int (((r * 7) + (j * 3)) mod 5 - 2))) vars))
      Lp_model.Le
      (float_of_int (r + 1))
  done;
  let t = prepared "all-slack" m in
  Alcotest.(check int) "no phase-1 pivots" 0 (Revised.stats t).Revised.pivots;
  check_fresh_factorization "all-slack" t

let test_factor_fig4 () =
  let net = Mapqn_workloads.Tandem.network ~population:20 () in
  let space, lp = Mapqn_core.Constraints.build Mapqn_core.Constraints.standard net in
  let t = prepared "fig4 N=20" lp in
  check_fresh_factorization "fig4 N=20 phase-1 basis" t;
  let objective = ref [] in
  Mapqn_core.Marginal_space.iter_phases space (fun h ->
      let v = Mapqn_core.Marginal_space.v space ~station:0 ~level:0 ~phase:h in
      objective := (Lp_model.var_of_int lp v, 1.) :: !objective);
  ignore (solution (Revised.optimize t Simplex.Minimize !objective));
  check_fresh_factorization "fig4 N=20 optimal basis" t

let test_factor_random () =
  List.iter
    (fun seed ->
      let m, vars, _, c = build_random_lp (6, 8, seed) in
      Array.iter (fun v -> Lp_model.add_row m [ (v, 1.) ] Lp_model.Le 50.) vars;
      let obj = Array.to_list (Array.mapi (fun i v -> (v, c.(i))) vars) in
      let name = Printf.sprintf "random seed %d" seed in
      let t = prepared name m in
      check_fresh_factorization (name ^ " phase-1 basis") t;
      ignore (solution (Revised.optimize t Simplex.Maximize obj));
      check_fresh_factorization (name ^ " optimal basis") t)
    [ 11; 42; 1234; 987654; 2024 ]

let repairs () =
  match Mapqn_obs.Metrics.find "revised_basis_repairs_total" with
  | [ { Mapqn_obs.Metrics.value = Mapqn_obs.Metrics.Counter v; _ } ] -> v
  | _ -> 0.

let test_factor_dependent_repair () =
  (* x and y have the same column, so a seed basis holding both is
     singular: the factorization defers one of them, finds it dependent
     and covers its row with a unit column. *)
  let m = Lp_model.create () in
  let x = Lp_model.add_var m and y = Lp_model.add_var m and z = Lp_model.add_var m in
  Lp_model.add_row m [ (x, 1.); (y, 1.); (z, 1.) ] Lp_model.Le 4.;
  Lp_model.add_row m [ (x, 1.); (y, 1.) ] Lp_model.Le 3.;
  Lp_model.add_row m [ (z, 2.) ] Lp_model.Le 2.;
  let before = repairs () in
  let seeds = [ Revised.Seed_var (x :> int); Revised.Seed_var (y :> int) ] in
  match Revised.prepare_seeded ~seeds m with
  | Error e -> Alcotest.fail (Simplex.prepare_error_to_string e)
  | Ok (t, _) ->
    Alcotest.(check bool) "the basis was repaired" true (repairs () > before);
    check_fresh_factorization "repaired basis" t;
    check_obj "max x + y + z" 4.
      (solution (Revised.optimize t Simplex.Maximize [ (x, 1.); (y, 1.); (z, 1.) ]))
        .Simplex.objective

let test_prepare_error_typed () =
  let m = Lp_model.create () in
  let x = Lp_model.add_var m in
  Lp_model.add_row m [ (x, 1.) ] Lp_model.Le 1.;
  Lp_model.add_row m [ (x, 1.) ] Lp_model.Ge 2.;
  let check_backend name = function
    | Error Simplex.Infeasible_phase1 -> ()
    | Error (Simplex.Iteration_limit_phase1 _) ->
      Alcotest.fail (name ^ ": expected Infeasible_phase1, got iteration limit")
    | Ok _ -> Alcotest.fail (name ^ ": expected Error on infeasible model")
  in
  check_backend "dense"
    (Result.map (fun _ -> ()) (Simplex.prepare m));
  check_backend "revised"
    (Result.map (fun _ -> ()) (Revised.prepare m));
  Alcotest.(check bool)
    "error strings are informative" true
    (String.length (Simplex.prepare_error_to_string Simplex.Infeasible_phase1) > 0
    && String.length (Simplex.prepare_error_to_string (Simplex.Iteration_limit_phase1 7)) > 0)

(* Random LPs with arbitrary senses — feasible, infeasible or unbounded —
   solved by both backends, which must agree on the outcome constructor
   and (when optimal) on the objective to 1e-7. *)
let gen_general_lp =
  QCheck.Gen.(
    let* nvars = int_range 1 6 in
    let* nrows = int_range 1 7 in
    let* seed = int_range 0 1_000_000 in
    return (nvars, nrows, seed))

let build_general_lp (nvars, nrows, seed) =
  let rng = Mapqn_prng.Rng.create ~seed in
  let m = Lp_model.create () in
  let vars = Array.init nvars (fun _ -> Lp_model.add_var m) in
  for _ = 1 to nrows do
    let coeffs =
      Array.init nvars (fun _ -> Mapqn_prng.Dist.uniform rng ~lo:(-2.) ~hi:2.)
    in
    let sense =
      let u = Mapqn_prng.Dist.uniform rng ~lo:0. ~hi:3. in
      if u < 1. then Lp_model.Le else if u < 2. then Lp_model.Ge else Lp_model.Eq
    in
    let b = Mapqn_prng.Dist.uniform rng ~lo:(-2.) ~hi:4. in
    Lp_model.add_row m
      (Array.to_list (Array.mapi (fun i c -> (vars.(i), c)) coeffs))
      sense b
  done;
  let c = Array.init nvars (fun _ -> Mapqn_prng.Dist.uniform rng ~lo:(-1.) ~hi:1.) in
  (m, Array.to_list (Array.mapi (fun i v -> (v, c.(i))) vars))

let prop_dense_revised_agree =
  QCheck.Test.make ~name:"dense and revised backends agree" ~count:300
    (QCheck.make gen_general_lp) (fun params ->
      let m, obj = build_general_lp params in
      let agree direction =
        match (Simplex.solve m direction obj, Revised.solve m direction obj) with
        | Simplex.Optimal a, Simplex.Optimal b ->
          Float.abs (a.Simplex.objective -. b.Simplex.objective)
          <= 1e-7 *. Float.max 1. (Float.abs a.Simplex.objective)
        | Simplex.Infeasible, Simplex.Infeasible -> true
        | Simplex.Unbounded, Simplex.Unbounded -> true
        (* An iteration limit on either side says nothing about agreement. *)
        | Simplex.Iteration_limit, _ | _, Simplex.Iteration_limit -> true
        | _, _ -> false
      in
      agree Simplex.Minimize && agree Simplex.Maximize)

let prop_revised_solution_feasible =
  QCheck.Test.make ~name:"revised optimum satisfies the model" ~count:150
    (QCheck.make gen_feasible_lp) (fun params ->
      let m, vars, _, c = build_random_lp params in
      let obj = Array.to_list (Array.mapi (fun i v -> (v, c.(i))) vars) in
      match Revised.solve m Simplex.Maximize obj with
      | Simplex.Optimal s -> (
        match Lp_model.check_feasible ~tol:1e-6 m s.values with
        | Ok () -> true
        | Error _ -> false)
      | Simplex.Infeasible -> false
      | Simplex.Unbounded | Simplex.Iteration_limit -> true)

(* ---------------- optimality certificates ---------------- *)

let test_certificate_textbook () =
  (* At the exact optimum of a well-conditioned LP, every certificate
     component should be at machine-precision scale. *)
  let m = Lp_model.create () in
  let x = Lp_model.add_var m and y = Lp_model.add_var m in
  Lp_model.add_row m [ (x, 1.) ] Lp_model.Le 4.;
  Lp_model.add_row m [ (y, 2.) ] Lp_model.Le 12.;
  Lp_model.add_row m [ (x, 3.); (y, 2.) ] Lp_model.Le 18.;
  let obj = [ (x, 3.); (y, 5.) ] in
  let s = solution (Simplex.solve m Simplex.Maximize obj) in
  let cert = Certificate.compute m Simplex.Maximize ~objective:obj s in
  Alcotest.(check bool)
    "primal residual tiny" true
    (cert.Certificate.primal_residual <= 1e-9);
  Alcotest.(check bool)
    "dual violation tiny" true
    (cert.Certificate.dual_violation <= 1e-9);
  Alcotest.(check bool)
    "comp slack tiny" true
    (cert.Certificate.comp_slack <= 1e-9);
  match Certificate.check m Simplex.Maximize ~objective:obj s with
  | Ok _ -> ()
  | Error f -> Alcotest.fail (Certificate.failure_to_string f)

let test_certificate_rejects_corrupt () =
  let m = Lp_model.create () in
  let x = Lp_model.add_var m and y = Lp_model.add_var m in
  Lp_model.add_row m [ (x, 1.); (y, 1.) ] Lp_model.Eq 2.;
  let obj = [ (x, 1.) ] in
  let s = solution (Simplex.solve m Simplex.Maximize obj) in
  (* Shift the reported point (and its witness) off the constraint: the
     primal residual must catch it. *)
  let bad_point = Array.map (fun v -> v +. 0.5) s.Simplex.values in
  let bad =
    { s with Simplex.values = bad_point; Simplex.witness = bad_point }
  in
  (match Certificate.check m Simplex.Maximize ~objective:obj bad with
  | Ok _ -> Alcotest.fail "corrupt point passed the certificate"
  | Error f ->
    Alcotest.(check string) "quantity" "primal_residual" f.Certificate.quantity);
  (* Corrupt the duals: complementary slackness (or dual feasibility)
     must catch it even though the point itself is optimal. *)
  let bad_duals = Array.map (fun d -> d +. 1.) s.Simplex.duals in
  let bad = { s with Simplex.duals = bad_duals } in
  match Certificate.check m Simplex.Maximize ~objective:obj bad with
  | Ok _ -> Alcotest.fail "corrupt duals passed the certificate"
  | Error _ -> ()

let certify_both_backends name m direction obj =
  let s_dense = solution (Simplex.solve m direction obj) in
  (match Certificate.check m direction ~objective:obj s_dense with
  | Ok _ -> ()
  | Error f ->
    Alcotest.fail (name ^ " (dense): " ^ Certificate.failure_to_string f));
  let s_rev = solution (Revised.solve m direction obj) in
  match Certificate.check m direction ~objective:obj s_rev with
  | Ok _ -> ()
  | Error f ->
    Alcotest.fail (name ^ " (revised): " ^ Certificate.failure_to_string f)

let test_certificate_degenerate_redundant () =
  (* Redundant equalities leave zero-level artificials in the phase-1
     basis; after drive-out the certificate must still hold on both
     backends (this is the exact shape that used to silently relax
     rows). *)
  let m = Lp_model.create () in
  let x = Lp_model.add_var m and y = Lp_model.add_var m in
  Lp_model.add_row m [ (x, 1.); (y, 1.) ] Lp_model.Eq 2.;
  Lp_model.add_row m [ (x, 1.); (y, 1.) ] Lp_model.Eq 2.;
  Lp_model.add_row m [ (x, 2.); (y, 2.) ] Lp_model.Eq 4.;
  Lp_model.add_row m [ (x, 1.) ] Lp_model.Ge 0.5;
  certify_both_backends "redundant" m Simplex.Maximize [ (x, 1.) ]

let prop_certificate_random =
  QCheck.Test.make ~name:"random optima carry passing certificates" ~count:100
    (QCheck.make gen_feasible_lp) (fun params ->
      let m, vars, _, c = build_random_lp params in
      let obj = Array.to_list (Array.mapi (fun i v -> (v, c.(i))) vars) in
      match Simplex.solve m Simplex.Maximize obj with
      | Simplex.Optimal s -> (
        match Certificate.check m Simplex.Maximize ~objective:obj s with
        | Ok _ -> true
        | Error _ -> false)
      | Simplex.Infeasible -> false
      | Simplex.Unbounded | Simplex.Iteration_limit -> true)

let () =
  Alcotest.run "lp"
    [
      ( "simplex",
        [
          Alcotest.test_case "max 2d" `Quick test_max_2d;
          Alcotest.test_case "equalities" `Quick test_min_with_equalities;
          Alcotest.test_case "ge constraints" `Quick test_ge_constraints;
          Alcotest.test_case "infeasible" `Quick test_infeasible;
          Alcotest.test_case "unbounded" `Quick test_unbounded;
          Alcotest.test_case "negative rhs" `Quick test_negative_rhs;
          Alcotest.test_case "upper bound" `Quick test_var_upper_bound;
          Alcotest.test_case "lower bound shift" `Quick test_var_lower_bound_shift;
          Alcotest.test_case "free variable" `Quick test_free_variable;
          Alcotest.test_case "degenerate" `Quick test_degenerate;
          Alcotest.test_case "redundant equalities" `Quick test_redundant_equalities;
          Alcotest.test_case "probability simplex" `Quick test_equality_normalization_lp;
          Alcotest.test_case "prepare/optimize reuse" `Quick test_prepare_reuse;
          Alcotest.test_case "check_feasible" `Quick test_check_feasible;
          Alcotest.test_case "duplicate terms" `Quick test_duplicate_terms_summed;
          Alcotest.test_case "model pp" `Quick test_model_pp;
          Alcotest.test_case "textbook duals" `Quick test_duals_textbook;
          Alcotest.test_case "strong duality" `Quick test_strong_duality_equalities;
          QCheck_alcotest.to_alcotest prop_strong_duality_random_eq;
          QCheck_alcotest.to_alcotest prop_feasible_lp_not_infeasible;
          QCheck_alcotest.to_alcotest prop_solution_is_feasible;
          QCheck_alcotest.to_alcotest prop_min_max_bracket;
        ] );
      ( "revised",
        [
          Alcotest.test_case "textbook" `Quick test_revised_textbook;
          Alcotest.test_case "infeasible/unbounded" `Quick
            test_revised_infeasible_unbounded;
          Alcotest.test_case "warm start" `Quick test_revised_warm_start;
          Alcotest.test_case "eta updates vs fresh refactorization" `Quick
            test_ft_updates_vs_fresh_refactorization;
          Alcotest.test_case "stability trigger" `Quick
            test_reinversion_stability_trigger;
          Alcotest.test_case "typed prepare errors" `Quick test_prepare_error_typed;
          QCheck_alcotest.to_alcotest prop_dense_revised_agree;
          QCheck_alcotest.to_alcotest prop_revised_solution_feasible;
        ] );
      ( "lu-factor",
        [
          Alcotest.test_case "all-slack basis" `Quick test_factor_all_slack;
          Alcotest.test_case "fig4 N=20 bases" `Quick test_factor_fig4;
          Alcotest.test_case "random LP bases" `Quick test_factor_random;
          Alcotest.test_case "dependent-column repair" `Quick
            test_factor_dependent_repair;
        ] );
      ( "certificate",
        [
          Alcotest.test_case "textbook optimum" `Quick test_certificate_textbook;
          Alcotest.test_case "rejects corruption" `Quick
            test_certificate_rejects_corrupt;
          Alcotest.test_case "degenerate redundant rows" `Quick
            test_certificate_degenerate_redundant;
          QCheck_alcotest.to_alcotest prop_certificate_random;
        ] );
    ]
