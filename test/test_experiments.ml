(* Integration tests: the experiment drivers reproduce the paper's
   qualitative results end-to-end. *)

open Experiments

let model = Circuit.Sigma_model.paper_default

let test_table1_small_shape () =
  (* Run the Table-1 protocol on a reduced circuit and check the paper's
     qualitative shape. *)
  match Table1.run ~small:true ~model () with
  | [] -> Alcotest.fail "no results"
  | r :: _ ->
      (match r.Table1.rows with
      | [ unsized; min_mu; min_ms; min_m3s; area_mu; _area_ms; area_m3s ] ->
          let open Sizing.Engine in
          (* delay range: sizing helps *)
          Alcotest.(check bool) "min mu < unsized mu" true (min_mu.mu < unsized.mu);
          Alcotest.(check bool) "unsized area smallest" true
            (unsized.area <= min_mu.area && unsized.area <= area_mu.area);
          (* guard-banded minimisation controls sigma *)
          Alcotest.(check bool) "sigma(mu+3s) <= sigma(mu)+eps" true
            (min_m3s.sigma <= min_mu.sigma +. 0.01);
          Alcotest.(check bool) "ms between" true (min_ms.sigma <= min_mu.sigma +. 0.01);
          (* area-constrained rows: tighter statistical constraints cost area
             but cut mu and sigma *)
          Alcotest.(check bool) "area grows with k" true
            (area_m3s.area >= area_mu.area -. 0.5);
          Alcotest.(check bool) "mu shrinks with k" true (area_m3s.mu <= area_mu.mu +. 1e-6);
          Alcotest.(check bool) "sigma shrinks with k" true
            (area_m3s.sigma <= area_mu.sigma +. 1e-6);
          (* constraints are satisfied *)
          Alcotest.(check bool) "mu row feasible" true (area_mu.mu <= r.Table1.bound +. 1e-3);
          Alcotest.(check bool) "m3s row feasible" true
            (area_m3s.mu +. (3. *. area_m3s.sigma) <= r.Table1.bound +. 1e-3);
          (* every solver run converged *)
          List.iter
            (fun s -> Alcotest.(check bool) "converged" true s.converged)
            r.Table1.rows
      | _ -> Alcotest.fail "expected seven rows")

let test_table2_shape () =
  let r = Table2.run ~model () in
  Alcotest.(check int) "eleven rows" 11 (List.length r.Table2.rows);
  Alcotest.(check bool) "range ordered" true (r.Table2.mu_fast < r.Table2.mu_slow);
  Array.iter
    (fun t ->
      Alcotest.(check bool) "targets inside range" true
        (t >= r.Table2.mu_fast -. 1e-9 && t <= r.Table2.mu_slow +. 1e-9))
    r.Table2.targets;
  (* Group rows per target: min area / min sigma / max sigma. *)
  let by_target = Array.of_list (List.tl (List.tl r.Table2.rows)) in
  Alcotest.(check int) "nine target rows" 9 (Array.length by_target);
  for t = 0 to 2 do
    let area_row = by_target.(3 * t).Table2.solution in
    let min_row = by_target.((3 * t) + 1).Table2.solution in
    let max_row = by_target.((3 * t) + 2).Table2.solution in
    let open Sizing.Engine in
    Alcotest.(check bool) "sigma margin" true (min_row.sigma <= max_row.sigma);
    Alcotest.(check bool) "area-opt within margin" true
      (area_row.sigma >= min_row.sigma -. 1e-6 && area_row.sigma <= max_row.sigma +. 1e-6);
    Alcotest.(check bool) "min sigma costs area" true
      (min_row.area >= area_row.area -. 1e-6)
  done;
  (* Paper: the sigma interval is widest for the middle target. *)
  let margin t =
    let min_row = by_target.((3 * t) + 1).Table2.solution in
    let max_row = by_target.((3 * t) + 2).Table2.solution in
    max_row.Sizing.Engine.sigma -. min_row.Sizing.Engine.sigma
  in
  Alcotest.(check bool) "middle margin widest" true
    (margin 1 >= margin 0 -. 1e-3 && margin 1 >= margin 2 -. 1e-3)

let test_table3_shape () =
  let r = Table3.run ~model () in
  Alcotest.(check int) "three rows" 3 (List.length r.Table3.rows);
  Alcotest.(check int) "seven gates" 7 (Array.length r.Table3.gate_names);
  List.iter
    (fun (label, sizes) ->
      Alcotest.(check int) (label ^ " has 7 sizes") 7 (Array.length sizes);
      Array.iter
        (fun s ->
          if s < 1. -. 1e-6 || s > 3. +. 1e-6 then
            Alcotest.failf "%s: size %.3f out of bounds" label s)
        sizes)
    r.Table3.rows;
  (* min area and min sigma keep the symmetric groups symmetric. *)
  List.iter
    (fun (label, sz) ->
      if label <> "max sigma" then begin
        if abs_float (sz.(0) -. sz.(4)) > 0.02 then
          Alcotest.failf "%s: group {A,B,D,E} asymmetric" label;
        if abs_float (sz.(2) -. sz.(5)) > 0.02 then
          Alcotest.failf "%s: group {C,F} asymmetric" label
      end)
    r.Table3.rows

let test_example_fig2_agreement () =
  let r = Example_fig2.run ~model () in
  Alcotest.(check bool) "full converged" true r.Example_fig2.full.Sizing.Engine.converged;
  Alcotest.(check bool) "reduced converged" true
    r.Example_fig2.reduced.Sizing.Engine.converged;
  Alcotest.(check bool) "formulations agree" true (r.Example_fig2.agreement < 0.02);
  Alcotest.(check int) "26 variables" 26 r.Example_fig2.n_variables

let test_yield_tree_conformance () =
  (* The 50 / 84.1 / 99.8 % claim on the reconvergence-free tree. *)
  let r = Yield_exp.run ~model ~net:(Circuit.Generate.tree ()) ~samples:20_000 () in
  match r.Yield_exp.rows with
  | [ r0; r1; r3 ] ->
      let close a b tol = abs_float (a -. b) <= tol in
      Alcotest.(check bool) "k=0 ~ 50%" true (close r0.Yield_exp.monte_carlo 0.5 0.03);
      Alcotest.(check bool) "k=1 ~ 84.1%" true (close r1.Yield_exp.monte_carlo 0.841 0.03);
      Alcotest.(check bool) "k=3 ~ 99.8%" true (r3.Yield_exp.monte_carlo > 0.97);
      (* analytic yield equals the prediction when the constraint is active *)
      Alcotest.(check bool) "analytic k=0" true
        (close r0.Yield_exp.analytic r0.Yield_exp.predicted 0.02);
      Alcotest.(check bool) "analytic k=1" true
        (close r1.Yield_exp.analytic r1.Yield_exp.predicted 0.02)
  | _ -> Alcotest.fail "expected three rows"

let test_yield_monotone_in_k () =
  let r = Yield_exp.run ~model ~net:(Circuit.Generate.tree ()) ~samples:5_000 () in
  let yields = List.map (fun row -> row.Yield_exp.monte_carlo) r.Yield_exp.rows in
  match yields with
  | [ y0; y1; y3 ] ->
      Alcotest.(check bool) "monotone" true (y0 <= y1 +. 0.02 && y1 <= y3 +. 0.02)
  | _ -> Alcotest.fail "expected three rows"

let test_mc_accuracy_small_errors () =
  let r = Mc_accuracy.run ~model ~samples:100_000 () in
  List.iter
    (fun g ->
      if g.Mc_accuracy.mu_err > 0.02 then
        Alcotest.failf "grid mu error %.4f at dmu=%g ratio=%g" g.Mc_accuracy.mu_err
          g.Mc_accuracy.dmu g.Mc_accuracy.sigma_ratio;
      if g.Mc_accuracy.sigma_err > 0.02 then
        Alcotest.failf "grid sigma error %.4f" g.Mc_accuracy.sigma_err)
    r.Mc_accuracy.grid;
  (* Tree and chain respect independence: SSTA within a few percent. *)
  List.iter
    (fun c ->
      if c.Mc_accuracy.circuit_name = "tree" || c.Mc_accuracy.circuit_name = "chain" then begin
        let rel =
          abs_float (c.Mc_accuracy.analytic_mu -. c.Mc_accuracy.mc_mu)
          /. c.Mc_accuracy.mc_mu
        in
        if rel > 0.02 then
          Alcotest.failf "%s: SSTA mu off by %.2f%%" c.Mc_accuracy.circuit_name (100. *. rel)
      end)
    r.Mc_accuracy.circuits

let test_ablation_shapes () =
  let r = Ablation.run ~samples:4_000 () in
  (* sigma sweep: larger uncertainty ratio -> larger sized sigma *)
  let sigmas =
    List.map (fun (s : Ablation.sigma_row) -> s.Ablation.sigma) r.Ablation.sigma_sweep
  in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b +. 1e-6 && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "sigma monotone in ratio" true (monotone sigmas);
  (* formulation ablation: both converge to the same objective *)
  (match r.Ablation.formulation with
  | [ a; b ] ->
      Alcotest.(check bool) "both converged" true
        (a.Ablation.converged && b.Ablation.converged);
      Alcotest.(check (Alcotest.float 0.02)) "same optimum" a.Ablation.objective_value
        b.Ablation.objective_value
  | _ -> Alcotest.fail "expected two formulation rows");
  (* baseline: statistical sizing achieves (weakly) better yield than the
     deterministic greedy at the same deadline *)
  (match r.Ablation.baseline with
  | greedy :: stat :: _ ->
      Alcotest.(check bool) "statistical yield >= greedy" true
        (stat.Ablation.mc_yield >= greedy.Ablation.mc_yield -. 0.02)
  | _ -> Alcotest.fail "expected baseline rows");
  (* solver ablation: both inner solvers find the same optimum *)
  match r.Ablation.solver with
  | [ lbfgs; newton ] ->
      Alcotest.(check bool) "both converged" true
        (lbfgs.Ablation.s_converged && newton.Ablation.s_converged);
      Alcotest.(check (Alcotest.float 1.0)) "same area" lbfgs.Ablation.s_objective
        newton.Ablation.s_objective
  | _ -> Alcotest.fail "expected two solver rows"

let test_corner_pessimism () =
  let r = Experiments.Corner_exp.run ~model ~samples:5_000 () in
  List.iter
    (fun row ->
      let open Experiments.Corner_exp in
      (* ordering: typical < statistical <= worst corner *)
      Alcotest.(check bool) "typical below statistical" true
        (row.typical < row.statistical);
      Alcotest.(check bool) "corner above statistical" true
        (row.worst_corner >= row.statistical -. 1e-9);
      Alcotest.(check bool) "corner pessimistic vs MC" true (row.overestimate > 1.05);
      (* on independence-respecting circuits the statistical estimate
         tracks the MC quantile closely *)
      if row.circuit_name = "tree" || row.circuit_name = "chain" then begin
        let rel = abs_float (row.statistical -. row.mc_quantile) /. row.mc_quantile in
        if rel > 0.02 then
          Alcotest.failf "%s: mu+3sigma off MC quantile by %.1f%%" row.circuit_name
            (100. *. rel)
      end)
    r.Experiments.Corner_exp.rows

let test_scale_runs_small () =
  let r = Experiments.Scale_exp.run ~model ~sizes_list:[ 60; 120 ] () in
  match r.Experiments.Scale_exp.rows with
  | [ a; b ] ->
      let open Experiments.Scale_exp in
      Alcotest.(check bool) "speedups sensible" true (a.speedup > 1.2 && b.speedup > 1.2);
      Alcotest.(check bool) "times recorded" true
        (a.min_delay_time >= 0. && b.bounded_time >= 0.)
  | _ -> Alcotest.fail "expected two rows"

let test_prints_do_not_raise () =
  (* The print functions are exercised by [statsize tables]; here we
     only make sure they do not raise on real data. *)
  let r2 = Table2.run ~model () in
  Table2.print r2;
  let r3 = Table3.run ~model ~target_mu:(Table2.mid_target r2) () in
  Table3.print r3;
  Example_fig2.print (Example_fig2.run ~model ());
  Alcotest.(check bool) "ok" true true

let () =
  Alcotest.run "experiments"
    [
      ( "table1",
        [ Alcotest.test_case "small-case shape" `Slow test_table1_small_shape ] );
      ("table2", [ Alcotest.test_case "shape" `Slow test_table2_shape ]);
      ("table3", [ Alcotest.test_case "shape" `Slow test_table3_shape ]);
      ( "example",
        [ Alcotest.test_case "formulations agree" `Quick test_example_fig2_agreement ] );
      ( "yield",
        [
          Alcotest.test_case "tree conformance" `Slow test_yield_tree_conformance;
          Alcotest.test_case "monotone in k" `Slow test_yield_monotone_in_k;
        ] );
      ( "mc_accuracy",
        [ Alcotest.test_case "small errors" `Slow test_mc_accuracy_small_errors ] );
      ("ablation", [ Alcotest.test_case "shapes" `Slow test_ablation_shapes ]);
      ("corner", [ Alcotest.test_case "pessimism" `Slow test_corner_pessimism ]);
      ("scale", [ Alcotest.test_case "small sweep" `Slow test_scale_runs_small ]);
      ("printing", [ Alcotest.test_case "no raise" `Slow test_prints_do_not_raise ]);
    ]
