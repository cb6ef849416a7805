(* Tests for the sizing core: objectives, the reduced engine, the full
   eq.-17 formulation, the deterministic baseline, and reports. *)

open Circuit
open Sizing

let check_float ?(eps = 1e-12) msg expected actual =
  Alcotest.check (Alcotest.float eps) msg expected actual

let model = Sigma_model.paper_default

(* ---- Objective ------------------------------------------------------------- *)

let test_objective_describe () =
  Alcotest.(check string) "area" "min area" (Objective.describe Objective.Min_area);
  Alcotest.(check string) "mu" "min mu" (Objective.describe (Objective.Min_delay 0.));
  Alcotest.(check string) "mu+sigma" "min mu+sigma"
    (Objective.describe (Objective.Min_delay 1.));
  Alcotest.(check string) "mu+3sigma" "min mu+3sigma"
    (Objective.describe (Objective.Min_delay 3.));
  Alcotest.(check string) "bounded" "min area s.t. mu+3sigma <= 10"
    (Objective.describe (Objective.Min_area_bounded { k = 3.; bound = 10. }));
  Alcotest.(check string) "min sigma" "min sigma s.t. mu = 5"
    (Objective.describe (Objective.Min_sigma { mu = 5. }));
  Alcotest.(check string) "max sigma" "max sigma s.t. mu = 5"
    (Objective.describe (Objective.Max_sigma { mu = 5. }))

(* ---- Engine ----------------------------------------------------------------- *)

let test_min_area_trivial () =
  let net = Generate.tree () in
  let s = Engine.solve ~model net Objective.Min_area in
  Alcotest.(check bool) "converged" true s.Engine.converged;
  check_float "area = gate count" 7. s.Engine.area;
  Array.iter (fun sz -> check_float "all at lower bound" 1. sz) s.Engine.sizes

let test_min_delay_beats_unsized () =
  let net = Generate.tree () in
  let unsized = Engine.solve ~model net Objective.Min_area in
  let fast = Engine.solve ~model net (Objective.Min_delay 0.) in
  Alcotest.(check bool) "faster" true (fast.Engine.mu < unsized.Engine.mu);
  Alcotest.(check bool) "bigger" true (fast.Engine.area > unsized.Engine.area);
  Alcotest.(check bool) "converged" true fast.Engine.converged

let test_min_delay_tree_optimum () =
  (* Level-1 gates have only primary inputs upstream, so upsizing them is
     pure gain and they saturate; the root gate loads its fanins, so its
     optimal size is interior.  The optimum must be at least as good as
     the all-maximum sizing. *)
  let net = Generate.tree () in
  let s = Engine.solve ~model net (Objective.Min_delay 0.) in
  List.iter
    (fun leaf ->
      if s.Engine.sizes.(leaf) < 2.99 then
        Alcotest.failf "leaf gate %d should saturate, got %.3f" leaf s.Engine.sizes.(leaf))
    [ 0; 1; 3; 4 ];
  let all_max, _ = Engine.evaluate ~model net ~sizes:(Netlist.max_sizes net) in
  Alcotest.(check bool) "at least as fast as all-max" true
    (s.Engine.mu <= Statdelay.Normal.mu all_max.Sta.Ssta.circuit +. 1e-6)

let test_guard_band_ordering () =
  (* Minimising mu + k sigma for growing k yields (weakly) growing mu and
     shrinking sigma at the optimum. *)
  let net =
    Generate.random_dag { Generate.default_spec with Generate.n_gates = 80; seed = 21 }
  in
  let s0 = Engine.solve ~model net (Objective.Min_delay 0.) in
  let s3 = Engine.solve ~model net (Objective.Min_delay 3.) in
  Alcotest.(check bool) "sigma shrinks" true
    (s3.Engine.sigma <= s0.Engine.sigma +. 1e-6);
  Alcotest.(check bool) "mu grows slightly" true (s3.Engine.mu >= s0.Engine.mu -. 0.05);
  (* and the k-objective is no worse under its own metric (to solver
     tolerance) *)
  Alcotest.(check bool) "better mu+3sigma" true
    (s3.Engine.mu +. (3. *. s3.Engine.sigma)
     <= s0.Engine.mu +. (3. *. s0.Engine.sigma) +. 0.01)

let test_area_bounded_constraint_met () =
  let net = Generate.tree () in
  let unsized = Engine.solve ~model net Objective.Min_area in
  let bound = 0.85 *. unsized.Engine.mu in
  let s = Engine.solve ~model net (Objective.Min_area_bounded { k = 0.; bound }) in
  Alcotest.(check bool) "converged" true s.Engine.converged;
  Alcotest.(check bool) "constraint met" true (s.Engine.mu <= bound +. 1e-4);
  Alcotest.(check bool) "constraint active" true (s.Engine.mu >= bound -. 0.05);
  Alcotest.(check bool) "cheaper than full sizing" true (s.Engine.area < 21.)

let test_area_bounded_tighter_k_costs_area () =
  let net = Generate.apex2_like () in
  let unsized = Engine.solve ~model net Objective.Min_area in
  let bound = 0.85 *. unsized.Engine.mu in
  let area_of k =
    (Engine.solve ~model net (Objective.Min_area_bounded { k; bound })).Engine.area
  in
  let a0 = area_of 0. and a1 = area_of 1. and a3 = area_of 3. in
  Alcotest.(check bool) "k=1 costs more than k=0" true (a1 >= a0 -. 0.2);
  Alcotest.(check bool) "k=3 costs more than k=1" true (a3 >= a1 -. 0.2);
  Alcotest.(check bool) "strictly increasing overall" true (a3 > a0)

let test_min_sigma_vs_max_sigma () =
  let net = Generate.tree () in
  let target = 6.5 in
  let area_row =
    Engine.solve ~model net (Objective.Min_area_bounded { k = 0.; bound = target })
  in
  let min_s = Engine.solve ~model net (Objective.Min_sigma { mu = target }) in
  let max_s = Engine.solve ~model net (Objective.Max_sigma { mu = target }) in
  (* All three hold the mean. *)
  check_float ~eps:1e-3 "area row mu" target area_row.Engine.mu;
  check_float ~eps:1e-3 "min sigma mu" target min_s.Engine.mu;
  check_float ~eps:1e-3 "max sigma mu" target max_s.Engine.mu;
  (* Paper Table 2: min sigma <= area-optimal sigma <= max sigma, and
     minimising sigma costs more area than minimising area. *)
  Alcotest.(check bool) "sigma ordering low" true
    (min_s.Engine.sigma <= area_row.Engine.sigma +. 1e-6);
  Alcotest.(check bool) "sigma ordering high" true
    (max_s.Engine.sigma >= area_row.Engine.sigma -. 1e-6);
  Alcotest.(check bool) "sigma margin exists" true
    (max_s.Engine.sigma -. min_s.Engine.sigma > 0.01);
  Alcotest.(check bool) "min sigma costs area" true
    (min_s.Engine.area >= area_row.Engine.area -. 1e-6)

let test_table3_symmetry () =
  (* min area and min sigma treat the symmetric tree gate groups
     identically: S_A=S_B=S_D=S_E and S_C=S_F (paper Table 3). *)
  let net = Generate.tree () in
  List.iter
    (fun objective ->
      let s = Engine.solve ~model net objective in
      let sz = s.Engine.sizes in
      let tol = 0.02 in
      if abs_float (sz.(0) -. sz.(1)) > tol || abs_float (sz.(0) -. sz.(3)) > tol
         || abs_float (sz.(0) -. sz.(4)) > tol then
        Alcotest.failf "level-1 group not symmetric: %.3f %.3f %.3f %.3f" sz.(0) sz.(1)
          sz.(3) sz.(4);
      if abs_float (sz.(2) -. sz.(5)) > tol then
        Alcotest.failf "level-2 group not symmetric: %.3f %.3f" sz.(2) sz.(5);
      (* gates toward the output get larger speed factors *)
      if not (sz.(2) >= sz.(0) -. tol && sz.(6) >= sz.(2) -. tol) then
        Alcotest.failf "speed factors not increasing toward output: %.3f %.3f %.3f" sz.(0)
          sz.(2) sz.(6))
    [
      Objective.Min_area_bounded { k = 0.; bound = 6.5 };
      Objective.Min_sigma { mu = 6.5 };
    ]

let test_sizes_within_bounds () =
  let net = Generate.apex2_like () in
  let s = Engine.solve ~model net (Objective.Min_delay 3.) in
  Alcotest.(check unit) "valid" () (Netlist.check_sizes net s.Engine.sizes)

let test_engine_start_options () =
  let net = Generate.tree () in
  let solve start =
    Engine.solve
      ~options:{ Engine.default_options with Engine.start }
      ~model net (Objective.Min_delay 0.)
  in
  let a = solve `Low and b = solve `High and c = solve `Mid in
  (* Same optimum (to solver tolerance) from every start. *)
  check_float ~eps:0.01 "low vs mid" c.Engine.mu a.Engine.mu;
  check_float ~eps:0.01 "high vs mid" c.Engine.mu b.Engine.mu;
  let d =
    solve (`Given (Array.make (Netlist.n_gates net) 2.5))
  in
  check_float ~eps:0.01 "given vs mid" c.Engine.mu d.Engine.mu

let test_engine_restarts () =
  let net = Generate.tree () in
  let s =
    Engine.solve
      ~options:{ Engine.default_options with Engine.restarts = 2 }
      ~model net (Objective.Min_sigma { mu = 6.5 })
  in
  Alcotest.(check bool) "converged" true s.Engine.converged;
  check_float ~eps:1e-3 "mu held" 6.5 s.Engine.mu

let test_engine_invalid_inputs () =
  let net = Generate.tree () in
  Alcotest.check_raises "bad bound" (Invalid_argument "Engine: delay bound must be positive")
    (fun () ->
      ignore (Engine.solve ~model net (Objective.Min_area_bounded { k = 0.; bound = -1. })));
  Alcotest.check_raises "bad mu" (Invalid_argument "Engine: target mean delay must be positive")
    (fun () -> ignore (Engine.solve ~model net (Objective.Min_sigma { mu = 0. })))

let test_engine_zero_sigma_model () =
  (* Classical deterministic sizing as the Zero special case. *)
  let net = Generate.tree () in
  let s = Engine.solve ~model:Sigma_model.Zero net (Objective.Min_delay 0.) in
  check_float "sigma is zero" 0. s.Engine.sigma;
  Alcotest.(check bool) "still sizes" true (s.Engine.area > 7.)

(* ---- Warm starts ----------------------------------------------------------- *)

let solve_warm ?(options = Engine.default_options) warm_start net obj =
  Engine.solve ~options:{ options with Engine.warm_start } ~model net obj

(* The statistical metric the solver minimizes, for cold/warm comparison. *)
let metric (obj : Objective.t) (s : Engine.solution) =
  match obj with
  | Objective.Min_delay k -> s.Engine.mu +. (k *. s.Engine.sigma)
  | Objective.Min_area_bounded _ | Objective.Min_weighted _ | Objective.Min_area ->
      s.Engine.area
  | Objective.Min_sigma _ -> s.Engine.sigma
  | Objective.Max_sigma _ -> -.s.Engine.sigma

let test_warm_start_gp_never_worse () =
  (* Regression: a GP warm start must never land the solver on a worse
     local optimum than the cold multi-phase start.  Checked across the
     objective shapes with a GP analogue, on two circuit families. *)
  let cases =
    [
      ("tree min mu", Generate.tree (), Objective.Min_delay 0.);
      ("tree min mu+3s", Generate.tree (), Objective.Min_delay 3.);
      ("fig2 min mu", Generate.example_fig2 (), Objective.Min_delay 0.);
      ( "fig2 bounded",
        Generate.example_fig2 (),
        Objective.Min_area_bounded { k = 0.; bound = 1.6 } );
    ]
  in
  List.iter
    (fun (name, net, obj) ->
      let cold = Engine.solve ~model net obj in
      let warm = solve_warm `Gp net obj in
      Alcotest.(check bool) (name ^ ": warm converged") true warm.Engine.converged;
      Alcotest.(check bool) (name ^ ": feasible") true
        (warm.Engine.max_violation <= 1e-6);
      let c = metric obj cold and w = metric obj warm in
      if w > c +. (1e-4 *. Float.max 1. (Float.abs c)) then
        Alcotest.failf "%s: GP warm start worse than cold (%.9f > %.9f)" name w c)
    cases

let test_warm_start_gp_fewer_evals_apex2 () =
  (* The headline warm-start claim (recorded in EXPERIMENTS.md): seeding
     the statistical solve from the GP optimum cuts the evaluation count
     on apex2*. *)
  let net = Generate.apex2_like () in
  let obj = Objective.Min_delay 3. in
  let cold = Engine.solve ~model net obj in
  let warm = solve_warm `Gp net obj in
  Alcotest.(check bool) "cold converged" true cold.Engine.converged;
  Alcotest.(check bool) "warm converged" true warm.Engine.converged;
  if warm.Engine.evaluations >= cold.Engine.evaluations then
    Alcotest.failf "GP warm start did not save evaluations: warm %d >= cold %d"
      warm.Engine.evaluations cold.Engine.evaluations;
  (* Cold and warm converge to the same basin but stop at different
     iterates; allow the solver's own relative tolerance. *)
  let c = metric obj cold and w = metric obj warm in
  Alcotest.(check bool) "warm not worse" true
    (w <= c +. (1e-3 *. Float.max 1. (Float.abs c)))

let test_warm_start_baseline () =
  (* The deterministic TILOS warm start is a valid (if weaker) seed: the
     solve converges to the same optimum as cold. *)
  let net = Generate.tree () in
  let obj = Objective.Min_delay 0. in
  let cold = Engine.solve ~model net obj in
  let warm = solve_warm `Baseline net obj in
  Alcotest.(check bool) "converged" true warm.Engine.converged;
  check_float ~eps:0.01 "same optimum" cold.Engine.mu warm.Engine.mu

let test_warm_start_min_sigma_phases () =
  (* Min_sigma solves in two phases; the warm start must apply to the
     first only (the second is warm-started from the first's solution,
     which would otherwise be overridden). *)
  let net = Generate.tree () in
  let obj = Objective.Min_sigma { mu = 6.5 } in
  let cold = Engine.solve ~model net obj in
  let warm = solve_warm `Gp net obj in
  Alcotest.(check bool) "converged" true warm.Engine.converged;
  check_float ~eps:1e-3 "mu held" 6.5 warm.Engine.mu;
  Alcotest.(check bool) "sigma not worse than cold + tol" true
    (warm.Engine.sigma <= cold.Engine.sigma +. 1e-4)

let test_warm_start_no_gp_analogue_falls_back_cleanly () =
  (* Objectives without a GP analogue must silently use the normal start
     rather than fail. *)
  let net = Generate.tree () in
  let s = solve_warm `Gp net (Objective.Min_sigma { mu = 6.5 }) in
  Alcotest.(check bool) "converged" true s.Engine.converged;
  let a = solve_warm `Gp net Objective.Min_area in
  check_float "min area trivial under warm flag" 7. a.Engine.area

(* ---- Full formulation ---------------------------------------------------------- *)

let test_formulate_counts () =
  let net = Generate.example_fig2 () in
  let f = Formulate.build ~model net (Objective.Min_delay 3.) in
  (* 4 gates x (S, mu_t, var_t, mu_T, var_T) = 20 variables, plus max
     chains: D's fanin fold (3 operands -> 2 steps, but operands include
     variables) and the PO fold (1 step): each step adds 2 vars. *)
  Alcotest.(check int) "variables" 26 (Formulate.n_variables f);
  Alcotest.(check int) "constraints" 22 (Formulate.n_constraints f)

let test_formulate_rejects_min_area () =
  let net = Generate.example_fig2 () in
  Alcotest.check_raises "min area"
    (Invalid_argument "Formulate.build: unconstrained Min_area needs no NLP") (fun () ->
      ignore (Formulate.build ~model net Objective.Min_area))

let test_formulate_initial_point_feasible () =
  let net = Generate.example_fig2 () in
  let f = Formulate.build ~model net (Objective.Min_delay 3.) in
  let x0 = Formulate.initial_point f `Mid in
  let p = Formulate.problem f in
  (* The SSTA-consistent start satisfies all structural equalities. *)
  Alcotest.(check bool) "feasible" true (Nlp.Problem.max_violation p x0 < 1e-9)

let test_formulate_constraint_jacobians () =
  (* Every structural constraint's hand-written gradient matches finite
     differences at a random interior point. *)
  let net = Generate.example_fig2 () in
  let f = Formulate.build ~model net (Objective.Min_delay 3.) in
  let x0 = Formulate.initial_point f `Mid in
  (* Perturb away from the feasible manifold to avoid special points. *)
  let rng = Util.Rng.create 3 in
  let x = Array.map (fun v -> v +. Util.Rng.uniform rng ~lo:0.01 ~hi:0.05) x0 in
  let p = Formulate.problem f in
  Array.iteri
    (fun i (c : Nlp.Problem.constr) ->
      let v = Nlp.Check.gradient ~rtol:1e-4 ~atol:1e-6 c.Nlp.Problem.eval x in
      if not v.Nlp.Check.ok then
        Alcotest.failf "constraint %d (%s): %s" i c.Nlp.Problem.cname
          (Format.asprintf "%a" Nlp.Check.pp_verdict v))
    p.Nlp.Problem.constraints;
  let v = Nlp.Check.gradient ~rtol:1e-4 ~atol:1e-6 p.Nlp.Problem.base.Nlp.Problem.objective x in
  Alcotest.(check bool) "objective gradient ok" true v.Nlp.Check.ok

let test_formulate_gradients_all_objectives () =
  (* Gradient verification across the whole objective menu, at random
     feasible points (manufactured by Formulate.consistent_point from
     random interior sizings) on several generated circuits — not just
     the worked example at the canonical mid start. *)
  let rng = Util.Rng.create 97 in
  let small_dag =
    Generate.random_dag
      {
        Generate.default_spec with
        Generate.n_gates = 24;
        n_pis = 6;
        target_depth = 4;
        seed = 5;
      }
  in
  List.iter
    (fun (cname, net) ->
      let lo = Netlist.min_sizes net and hi = Netlist.max_sizes net in
      (* A mu target both Min_sigma and Max_sigma can reach: between the
         all-min (slowest) and all-max (fastest) mean delays. *)
      let mu_at sizes =
        Statdelay.Normal.mu (Sta.Ssta.analyze ~model net ~sizes).Sta.Ssta.circuit
      in
      let mu_slow = mu_at lo and mu_fast = mu_at hi in
      let mu_target = 0.5 *. (mu_slow +. mu_fast) in
      let bound = 0.95 *. mu_slow in
      let weights = Activity.power_weights net in
      List.iter
        (fun (oname, obj) ->
          let f = Formulate.build ~model net obj in
          let p = Formulate.problem f in
          for trial = 1 to 2 do
            let sizes =
              Array.init (Netlist.n_gates net) (fun i ->
                  Util.Rng.uniform rng ~lo:lo.(i) ~hi:hi.(i))
            in
            let x = Formulate.consistent_point f ~sizes in
            (* Nudge off the feasible manifold so the check does not sit
               at a special point of the max constraints. *)
            let x =
              Array.map (fun v -> v +. Util.Rng.uniform rng ~lo:0.005 ~hi:0.02) x
            in
            Array.iteri
              (fun i (c : Nlp.Problem.constr) ->
                let v = Nlp.Check.gradient ~rtol:1e-4 ~atol:1e-6 c.Nlp.Problem.eval x in
                if not v.Nlp.Check.ok then
                  Alcotest.failf "%s/%s trial %d constraint %d (%s): %s" cname oname
                    trial i c.Nlp.Problem.cname
                    (Format.asprintf "%a" Nlp.Check.pp_verdict v))
              p.Nlp.Problem.constraints;
            let v =
              Nlp.Check.gradient ~rtol:1e-4 ~atol:1e-6
                p.Nlp.Problem.base.Nlp.Problem.objective x
            in
            if not v.Nlp.Check.ok then
              Alcotest.failf "%s/%s trial %d objective: %s" cname oname trial
                (Format.asprintf "%a" Nlp.Check.pp_verdict v)
          done)
        [
          ("min-delay-mu", Objective.Min_delay 0.);
          ("min-delay-3s", Objective.Min_delay 3.);
          ("min-area-bounded", Objective.Min_area_bounded { k = 1.; bound });
          ("min-sigma", Objective.Min_sigma { mu = mu_target });
          ("max-sigma", Objective.Max_sigma { mu = mu_target });
          ( "min-power",
            Objective.Min_weighted { label = "power"; weights; k = 1.; bound } );
        ])
    [
      ("fig2", Generate.example_fig2 ());
      ("tree", Generate.tree ());
      ("dag24", small_dag);
    ]

let test_formulate_matches_reduced_fig2 () =
  let net = Generate.example_fig2 () in
  let objective = Objective.Min_delay 3. in
  let full = Formulate.solve (Formulate.build ~model net objective) in
  let reduced = Engine.solve ~model net objective in
  Alcotest.(check bool) "full converged" true full.Engine.converged;
  check_float ~eps:2e-3 "same mu" reduced.Engine.mu full.Engine.mu;
  check_float ~eps:2e-3 "same sigma" reduced.Engine.sigma full.Engine.sigma;
  Array.iteri
    (fun i s ->
      if abs_float (s -. reduced.Engine.sizes.(i)) > 0.02 then
        Alcotest.failf "size %d: full %.4f vs reduced %.4f" i s reduced.Engine.sizes.(i))
    full.Engine.sizes

let test_formulate_matches_reduced_tree_bounded () =
  let net = Generate.tree () in
  let objective = Objective.Min_area_bounded { k = 1.; bound = 6.5 } in
  let full = Formulate.solve (Formulate.build ~model net objective) in
  let reduced = Engine.solve ~model net objective in
  Alcotest.(check bool) "full converged" true full.Engine.converged;
  check_float ~eps:0.05 "same area" reduced.Engine.area full.Engine.area

let test_formulate_eq14_same_optimum () =
  let net = Generate.example_fig2 () in
  let objective = Objective.Min_delay 3. in
  let lin = Formulate.solve (Formulate.build ~linearized:true ~model net objective) in
  let raw = Formulate.solve (Formulate.build ~linearized:false ~model net objective) in
  check_float ~eps:2e-3 "same mu" lin.Engine.mu raw.Engine.mu;
  check_float ~eps:2e-3 "same sigma" lin.Engine.sigma raw.Engine.sigma

(* ---- Baseline --------------------------------------------------------------------- *)

let test_baseline_minimize_delay () =
  let net = Generate.tree () in
  let r = Baseline.minimize_delay net in
  let unsized = (Sta.Dsta.analyze net ~sizes:(Netlist.min_sizes net)).Sta.Dsta.circuit in
  Alcotest.(check bool) "improves" true (r.Baseline.delay < unsized);
  Alcotest.(check bool) "costs area" true (r.Baseline.area > 7.);
  Alcotest.(check unit) "sizes valid" () (Netlist.check_sizes net r.Baseline.sizes)

let test_baseline_meet_deadline () =
  let net = Generate.tree () in
  let unsized = (Sta.Dsta.analyze net ~sizes:(Netlist.min_sizes net)).Sta.Dsta.circuit in
  let deadline = 0.9 *. unsized in
  let r = Baseline.meet_deadline net ~deadline in
  Alcotest.(check bool) "met" true r.Baseline.met;
  Alcotest.(check bool) "delay under deadline" true (r.Baseline.delay <= deadline);
  (* lean: cheaper than full sizing *)
  Alcotest.(check bool) "lean" true (r.Baseline.area < 21.)

let test_baseline_impossible_deadline () =
  let net = Generate.tree () in
  let r = Baseline.meet_deadline net ~deadline:0.1 in
  Alcotest.(check bool) "not met" false r.Baseline.met

let test_baseline_near_statistical_area () =
  (* At the same deadline (accounting for the mean-shift of the statistical
     model) the greedy baseline should land in the same area ballpark. *)
  let net = Generate.apex2_like () in
  let unsized = (Sta.Dsta.analyze net ~sizes:(Netlist.min_sizes net)).Sta.Dsta.circuit in
  let deadline = 0.8 *. unsized in
  let greedy = Baseline.meet_deadline net ~deadline in
  Alcotest.(check bool) "met" true greedy.Baseline.met;
  Alcotest.(check bool) "bounded blowup" true (greedy.Baseline.area < 3. *. 117.)

let test_engine_matches_brute_force_fig2 () =
  (* The paper claims to solve the sizing problem "exactly".  Verify global
     optimality of the engine on the fig-2 example by exhaustive grid
     search over all four speed factors (0.05 resolution, 41^4 ~ 2.8M
     points reduced to a coarse 0.1 pass + local 0.025 refinement). *)
  let net = Generate.example_fig2 () in
  let metric sizes =
    let res = Sta.Ssta.analyze ~model net ~sizes in
    Statdelay.Normal.mu res.Sta.Ssta.circuit
    +. (3. *. Statdelay.Normal.sigma res.Sta.Ssta.circuit)
  in
  let best = ref infinity and best_x = ref [| 1.; 1.; 1.; 1. |] in
  let grid lo hi step =
    let n = int_of_float (Float.round ((hi -. lo) /. step)) in
    Array.init (n + 1) (fun i -> min hi (lo +. (float_of_int i *. step)))
  in
  (* coarse pass *)
  let coarse = grid 1. 3. 0.1 in
  Array.iter (fun a ->
      Array.iter (fun b ->
          Array.iter (fun c ->
              Array.iter (fun d ->
                  let x = [| a; b; c; d |] in
                  let v = metric x in
                  if v < !best then begin
                    best := v;
                    best_x := Array.copy x
                  end)
                coarse)
            coarse)
        coarse)
    coarse;
  (* refine around the coarse winner *)
  let refine_axis v = grid (max 1. (v -. 0.1)) (min 3. (v +. 0.1)) 0.025 in
  let axes = Array.map refine_axis !best_x in
  Array.iter (fun a ->
      Array.iter (fun b ->
          Array.iter (fun c ->
              Array.iter (fun d ->
                  let v = metric [| a; b; c; d |] in
                  if v < !best then best := v)
                axes.(3))
            axes.(2))
        axes.(1))
    axes.(0);
  let s = Engine.solve ~model net (Objective.Min_delay 3.) in
  let engine_value = s.Engine.mu +. (3. *. s.Engine.sigma) in
  (* the engine must be at least as good as the best grid point *)
  Alcotest.(check bool) "engine <= grid best" true (engine_value <= !best +. 1e-4)

(* ---- Sweep ------------------------------------------------------------------------- *)

let test_sweep_monotone_pareto () =
  let net = Generate.tree () in
  let curve = Sweep.area_delay ~model ~points:4 net in
  Alcotest.(check int) "point count" 4 (List.length curve.Sweep.points);
  Alcotest.(check bool) "range ordered" true (curve.Sweep.mu_fast < curve.Sweep.mu_slow);
  (* Budgets decrease along the list; areas must (weakly) increase. *)
  let rec walk = function
    | a :: (b :: _ as rest) ->
        Alcotest.(check bool) "budgets decreasing" true (b.Sweep.bound < a.Sweep.bound);
        Alcotest.(check bool) "area increases as budget tightens" true
          (b.Sweep.solution.Engine.area >= a.Sweep.solution.Engine.area -. 0.05);
        walk rest
    | _ -> ()
  in
  walk curve.Sweep.points;
  (* Every point satisfies its budget. *)
  List.iter
    (fun p ->
      Alcotest.(check bool) "feasible" true
        (p.Sweep.solution.Engine.mu <= p.Sweep.bound +. 1e-3))
    curve.Sweep.points

let test_sweep_guard_banded () =
  let net = Generate.tree () in
  let curve = Sweep.area_delay ~model ~k:3. ~points:3 net in
  List.iter
    (fun p ->
      let s = p.Sweep.solution in
      Alcotest.(check bool) "mu+3sigma within budget" true
        (s.Engine.mu +. (3. *. s.Engine.sigma) <= p.Sweep.bound +. 1e-3))
    curve.Sweep.points

let test_sweep_validation () =
  let net = Generate.tree () in
  Alcotest.check_raises "too few points"
    (Invalid_argument "Sweep.area_delay: need at least two points") (fun () ->
      ignore (Sweep.area_delay ~model ~points:1 net))

(* ---- Report ------------------------------------------------------------------------ *)

let test_report_cpu_string () =
  Alcotest.(check string) "seconds" "18.5 s" (Report.cpu_string 18.5);
  Alcotest.(check string) "minutes" "41 m 13.5 s" (Report.cpu_string ((41. *. 60.) +. 13.5))

let test_report_row_shape () =
  let net = Generate.tree () in
  let s = Engine.solve ~model net Objective.Min_area in
  let cells = Report.row s in
  Alcotest.(check int) "six cells" 6 (List.length cells);
  Alcotest.(check string) "label" "sum S_i" (List.nth cells 0)

let test_report_speed_factors_order () =
  let net = Generate.tree () in
  let s = Engine.solve ~model net Objective.Min_area in
  let sf = Report.speed_factors net s in
  Alcotest.(check (list string)) "names in order"
    [ "A"; "B"; "C"; "D"; "E"; "F"; "G" ]
    (List.map fst sf)

let () =
  Alcotest.run "sizing"
    [
      ("objective", [ Alcotest.test_case "describe" `Quick test_objective_describe ]);
      ( "engine",
        [
          Alcotest.test_case "min area trivial" `Quick test_min_area_trivial;
          Alcotest.test_case "min delay beats unsized" `Quick test_min_delay_beats_unsized;
          Alcotest.test_case "tree min-delay optimum" `Quick test_min_delay_tree_optimum;
          Alcotest.test_case "guard band ordering" `Quick test_guard_band_ordering;
          Alcotest.test_case "bounded constraint met" `Quick test_area_bounded_constraint_met;
          Alcotest.test_case "tighter k costs area" `Slow
            test_area_bounded_tighter_k_costs_area;
          Alcotest.test_case "min vs max sigma" `Quick test_min_sigma_vs_max_sigma;
          Alcotest.test_case "table3 symmetry" `Quick test_table3_symmetry;
          Alcotest.test_case "sizes within bounds" `Quick test_sizes_within_bounds;
          Alcotest.test_case "start options" `Quick test_engine_start_options;
          Alcotest.test_case "restarts" `Quick test_engine_restarts;
          Alcotest.test_case "invalid inputs" `Quick test_engine_invalid_inputs;
          Alcotest.test_case "zero sigma model" `Quick test_engine_zero_sigma_model;
          Alcotest.test_case "gp warm start never worse" `Quick
            test_warm_start_gp_never_worse;
          Alcotest.test_case "gp warm start saves evaluations (apex2*)" `Slow
            test_warm_start_gp_fewer_evals_apex2;
          Alcotest.test_case "baseline warm start" `Quick test_warm_start_baseline;
          Alcotest.test_case "min-sigma warm-start phases" `Quick
            test_warm_start_min_sigma_phases;
          Alcotest.test_case "no gp analogue falls back cleanly" `Quick
            test_warm_start_no_gp_analogue_falls_back_cleanly;
          Alcotest.test_case "matches brute force (fig2)" `Slow
            test_engine_matches_brute_force_fig2;
        ] );
      ( "formulate",
        [
          Alcotest.test_case "variable/constraint counts" `Quick test_formulate_counts;
          Alcotest.test_case "rejects min area" `Quick test_formulate_rejects_min_area;
          Alcotest.test_case "initial point feasible" `Quick
            test_formulate_initial_point_feasible;
          Alcotest.test_case "constraint jacobians vs FD" `Quick
            test_formulate_constraint_jacobians;
          Alcotest.test_case "gradients: all objectives, random feasible points"
            `Slow test_formulate_gradients_all_objectives;
          Alcotest.test_case "matches reduced (fig2)" `Quick test_formulate_matches_reduced_fig2;
          Alcotest.test_case "matches reduced (tree bounded)" `Slow
            test_formulate_matches_reduced_tree_bounded;
          Alcotest.test_case "eq14 same optimum" `Quick test_formulate_eq14_same_optimum;
        ] );
      ( "baseline",
        [
          Alcotest.test_case "minimize delay" `Quick test_baseline_minimize_delay;
          Alcotest.test_case "meet deadline" `Quick test_baseline_meet_deadline;
          Alcotest.test_case "impossible deadline" `Quick test_baseline_impossible_deadline;
          Alcotest.test_case "sane area at deadline" `Quick test_baseline_near_statistical_area;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "monotone pareto" `Slow test_sweep_monotone_pareto;
          Alcotest.test_case "guard banded" `Slow test_sweep_guard_banded;
          Alcotest.test_case "validation" `Quick test_sweep_validation;
        ] );
      ( "report",
        [
          Alcotest.test_case "cpu string" `Quick test_report_cpu_string;
          Alcotest.test_case "row shape" `Quick test_report_row_shape;
          Alcotest.test_case "speed factor order" `Quick test_report_speed_factors_order;
        ] );
    ]
