(* Fault-injection tests for the solver resilience layer.

   Every fault class the guards advertise (NaN objective, Inf gradient,
   stalled solves, expired budgets) is manufactured with Util.Fault and
   driven through the full Sizing.Engine stack via the [instrument]
   hook: the engine must catch it, climb the recovery ladder, and
   surface the trail in [solution.recovery] — never crash, hang, or
   silently report success.  Fault schedules use the same Rng.keyed
   discipline as the Monte Carlo engine, so every test here is
   deterministic bit for bit. *)

open Sizing

let model = Circuit.Sigma_model.paper_default

let inject plan problem =
  Nlp.Problem.map_components
    (fun ~component f ->
      Util.Fault.wrap plan ~component:(Nlp.Problem.component_index component) f)
    problem

let objective_site kind trigger =
  { Util.Fault.kind; Util.Fault.component = Some 0; Util.Fault.trigger }

let solve_faulted ?(options = Engine.default_options) plan net obj =
  Engine.solve
    ~options:{ options with Engine.instrument = Some (inject plan) }
    ~model net obj

let rungs (s : Engine.solution) =
  List.map (fun (a : Engine.attempt) -> a.Engine.rung) s.Engine.recovery

let outcomes (s : Engine.solution) =
  List.map (fun (a : Engine.attempt) -> a.Engine.outcome) s.Engine.recovery

(* A bounded-area problem whose `Low start is infeasible (all-min sizes
   are the slowest), so failed attempts have a real violation to report. *)
let bounded_setup () =
  let net = Circuit.Generate.tree () in
  let unsized, _ = Engine.evaluate ~model net ~sizes:(Circuit.Netlist.min_sizes net) in
  let bound = 0.9 *. Statdelay.Normal.mu unsized.Sta.Ssta.circuit in
  (net, Objective.Min_area_bounded { k = 0.; bound })

(* ---- clean solves: guards are observability, not behaviour ------------------- *)

let test_clean_solve_no_recovery () =
  let net, obj = bounded_setup () in
  let s = Engine.solve ~model net obj in
  Alcotest.(check bool) "converged" true s.Engine.converged;
  Alcotest.(check bool) "termination" true
    (s.Engine.termination = Nlp.Auglag.Converged);
  Alcotest.(check (list unit)) "recovery empty" []
    (List.map (fun _ -> ()) s.Engine.recovery)

let test_guard_bit_identity () =
  (* The same solve with guards disabled must produce bit-identical
     sizes: the guarded wrapper only observes. *)
  let net, obj = bounded_setup () in
  let on = Engine.solve ~model net obj in
  let off =
    Engine.solve
      ~options:
        {
          Engine.default_options with
          Engine.solver =
            {
              Engine.default_options.Engine.solver with
              Nlp.Auglag.guard = false;
            };
        }
      ~model net obj
  in
  Alcotest.(check bool) "sizes bit-identical" true (on.Engine.sizes = off.Engine.sizes);
  Alcotest.(check bool) "objective bit-identical" true
    (Int64.bits_of_float on.Engine.area = Int64.bits_of_float off.Engine.area)

(* ---- single transient fault: first ladder rung recovers ---------------------- *)

let check_recovers_via_perturbed_restart kind =
  let net, obj = bounded_setup () in
  let plan = Util.Fault.plan [ objective_site kind (Util.Fault.First 1) ] in
  let s = solve_faulted plan net obj in
  Alcotest.(check bool) "recovered" true s.Engine.converged;
  Alcotest.(check bool) "termination converged" true
    (s.Engine.termination = Nlp.Auglag.Converged);
  (match rungs s with
  | [ Engine.Initial; Engine.Perturbed_restart ] -> ()
  | r ->
      Alcotest.failf "unexpected ladder: %s"
        (String.concat ", " (List.map Engine.rung_name r)));
  (match outcomes s with
  | [ Nlp.Auglag.Breakdown; Nlp.Auglag.Converged ] -> ()
  | _ -> Alcotest.fail "expected Breakdown then Converged");
  (* the typed diagnosis of the failed attempt is preserved *)
  (match (List.hd s.Engine.recovery).Engine.breakdown with
  | Some b ->
      Alcotest.(check bool) "objective blamed" true
        (b.Nlp.Problem.b_component = Nlp.Problem.Objective)
  | None -> Alcotest.fail "expected a breakdown diagnosis on the initial attempt");
  Alcotest.(check bool) "fault actually fired" true (Util.Fault.log plan <> [])

let test_nan_objective_recovers () =
  check_recovers_via_perturbed_restart Util.Fault.Nan_value

let test_inf_objective_recovers () =
  check_recovers_via_perturbed_restart Util.Fault.Inf_value

let test_nan_gradient_recovers () =
  check_recovers_via_perturbed_restart Util.Fault.Nan_gradient

let test_inf_gradient_recovers () =
  check_recovers_via_perturbed_restart Util.Fault.Inf_gradient

(* ---- persistent fault: the whole ladder runs, the GP degrades ---------------- *)

let test_persistent_fault_reaches_gp () =
  let net, obj = bounded_setup () in
  let plan = Util.Fault.plan [ objective_site Util.Fault.Nan_value Util.Fault.Always ] in
  let s = solve_faulted plan net obj in
  Alcotest.(check bool) "not converged" false s.Engine.converged;
  Alcotest.(check bool) "breakdown surfaced" true
    (s.Engine.termination = Nlp.Auglag.Breakdown);
  (match rungs s with
  | [
   Engine.Initial; Engine.Perturbed_restart; Engine.Alternate_solver;
   Engine.Gentler_penalty; Engine.Gp_fallback;
  ] ->
      ()
  | r ->
      Alcotest.failf "unexpected ladder: %s"
        (String.concat ", " (List.map Engine.rung_name r)));
  (* The GP fallback produced usable sizes with honest numbers — the GP
     targets the mean delay, so a residual statistical violation is
     expected and must be reported, not hidden. *)
  Alcotest.(check bool) "sizes finite" true (Util.Guard.all_finite s.Engine.sizes);
  Alcotest.(check bool) "violation finite" true
    (Util.Guard.is_finite s.Engine.max_violation);
  Alcotest.(check bool) "mu finite" true (Util.Guard.is_finite s.Engine.mu);
  (match List.rev s.Engine.recovery with
  | last :: _ ->
      Alcotest.(check bool) "fallback attempt recorded as converged" true
        (last.Engine.outcome = Nlp.Auglag.Converged)
  | [] -> Alcotest.fail "empty recovery trail")

let test_gp_infeasible_falls_through_to_baseline () =
  (* A delay bound far below the circuit's floor: the GP rung certifies
     Infeasible and steps aside, and the ladder still lands on the
     deterministic greedy baseline (which returns its best effort). *)
  let net = Circuit.Generate.tree () in
  let unsized, _ = Engine.evaluate ~model net ~sizes:(Circuit.Netlist.min_sizes net) in
  let bound = 0.05 *. Statdelay.Normal.mu unsized.Sta.Ssta.circuit in
  let obj = Objective.Min_area_bounded { k = 0.; bound } in
  let plan = Util.Fault.plan [ objective_site Util.Fault.Nan_value Util.Fault.Always ] in
  let s = solve_faulted plan net obj in
  Alcotest.(check bool) "not converged" false s.Engine.converged;
  (match List.rev (rungs s) with
  | Engine.Baseline_fallback :: _ -> ()
  | r ->
      Alcotest.failf "expected a terminal baseline rung, got ladder: %s"
        (String.concat ", " (List.map Engine.rung_name (List.rev r))));
  Alcotest.(check bool) "gp rung not recorded" true
    (not (List.mem Engine.Gp_fallback (rungs s)));
  Alcotest.(check bool) "sizes finite" true (Util.Guard.all_finite s.Engine.sizes);
  Alcotest.(check bool) "violation reported" true
    (Util.Guard.is_finite s.Engine.max_violation && s.Engine.max_violation > 0.)

let test_persistent_fault_min_delay_adopts_gp () =
  (* Unconstrained Min_delay under a persistent fault: the GP rung has a
     mean-model analogue, so the trail must end at [Gp_fallback] with
     in-box sizes and a zero constraint violation. *)
  Util.Instr.enable ();
  let net = Circuit.Generate.tree () in
  let obj = Objective.Min_delay 0. in
  let plan = Util.Fault.plan [ objective_site Util.Fault.Nan_value Util.Fault.Always ] in
  let s = solve_faulted plan net obj in
  Alcotest.(check bool) "not converged" false s.Engine.converged;
  (match List.rev (rungs s) with
  | Engine.Gp_fallback :: _ -> ()
  | r ->
      Alcotest.failf "expected a terminal gp rung, got ladder: %s"
        (String.concat ", " (List.map Engine.rung_name (List.rev r))));
  let lo = Circuit.Netlist.min_sizes net and hi = Circuit.Netlist.max_sizes net in
  Array.iteri
    (fun i x ->
      if x < lo.(i) -. 1e-12 || x > hi.(i) +. 1e-12 then
        Alcotest.failf "size %d out of box: %g" i x)
    s.Engine.sizes;
  Alcotest.(check (float 0.)) "no constraint to violate" 0. s.Engine.max_violation;
  let snap = Util.Instr.snapshot () in
  let count name =
    match List.assoc_opt name snap.Util.Instr.counters with Some n -> n | None -> 0
  in
  Alcotest.(check bool) "gp fallback counted" true
    (count "engine.recovery.gp_fallback" >= 1)

let test_no_recovery_reports_typed_failure () =
  (* Same persistent fault with the ladder off: a single attempt, a typed
     Breakdown, usable diagnosis, no exception. *)
  let net, obj = bounded_setup () in
  let plan = Util.Fault.plan [ objective_site Util.Fault.Nan_value Util.Fault.Always ] in
  let s =
    solve_faulted
      ~options:{ Engine.default_options with Engine.recovery = false }
      plan net obj
  in
  Alcotest.(check bool) "not converged" false s.Engine.converged;
  Alcotest.(check bool) "breakdown" true
    (s.Engine.termination = Nlp.Auglag.Breakdown);
  Alcotest.(check (list unit)) "no ladder" [] (List.map (fun _ -> ()) s.Engine.recovery);
  Alcotest.(check bool) "sizes finite" true (Util.Guard.all_finite s.Engine.sizes);
  (* the CLI diagnosis renders *)
  let json = Report.diagnosis_json s in
  Alcotest.(check bool) "diagnosis mentions breakdown" true
    (String.length json > 0
    &&
    let rec contains i =
      i + 9 <= String.length json && (String.sub json i 9 = "breakdown" || contains (i + 1))
    in
    contains 0)

(* ---- deeper transient faults engage deeper rungs ----------------------------- *)

let test_repeated_fault_engages_deeper_rung () =
  (* Three objective faults: the initial attempt and the perturbed
     restart both die (each failed attempt consumes one extra fault in
     its diagnosis re-measurement), and a later rung recovers clean. *)
  let net, obj = bounded_setup () in
  let plan = Util.Fault.plan [ objective_site Util.Fault.Nan_value (Util.Fault.First 3) ] in
  let s = solve_faulted plan net obj in
  Alcotest.(check bool) "eventually recovered" true s.Engine.converged;
  Alcotest.(check bool) "ladder deeper than one rung" true
    (List.length s.Engine.recovery >= 3);
  (match outcomes s with
  | Nlp.Auglag.Breakdown :: rest ->
      Alcotest.(check bool) "last rung converged" true
        (List.nth rest (List.length rest - 1) = Nlp.Auglag.Converged)
  | _ -> Alcotest.fail "expected the initial attempt to break down")

(* ---- budgets ----------------------------------------------------------------- *)

let test_eval_budget_stops_ladder () =
  let net, obj = bounded_setup () in
  let plan = Util.Fault.plan [ objective_site Util.Fault.Nan_value Util.Fault.Always ] in
  let s =
    solve_faulted
      ~options:{ Engine.default_options with Engine.max_evaluations = Some 40 }
      plan net obj
  in
  (* Bounded work: the guarded evaluations across every attempt respect
     the shared budget (the ladder stops rather than burning retries). *)
  Alcotest.(check bool) "not converged" false s.Engine.converged;
  Alcotest.(check bool) "bounded evaluations" true (s.Engine.evaluations <= 40);
  Alcotest.(check bool) "sizes finite" true (Util.Guard.all_finite s.Engine.sizes)

let test_deadline_returns_best_effort () =
  (* An (almost) immediate deadline on a clean problem: Deadline
     termination, finite sizes, no recovery retries (budget is gone). *)
  let net, obj = bounded_setup () in
  let s =
    Engine.solve
      ~options:{ Engine.default_options with Engine.deadline = Some 1e-6 }
      ~model net obj
  in
  Alcotest.(check bool) "not converged" false s.Engine.converged;
  Alcotest.(check bool) "deadline" true (s.Engine.termination = Nlp.Auglag.Deadline);
  Alcotest.(check (list unit)) "no retries" []
    (List.map (fun _ -> ()) s.Engine.recovery);
  Alcotest.(check bool) "sizes finite" true (Util.Guard.all_finite s.Engine.sizes)

let test_generous_deadline_unchanged () =
  (* A deadline the solve cannot hit must not perturb the result: the
     budgeted solve is bit-identical to the unbudgeted one. *)
  let net, obj = bounded_setup () in
  let free = Engine.solve ~model net obj in
  let budgeted =
    Engine.solve
      ~options:{ Engine.default_options with Engine.deadline = Some 3600. }
      ~model net obj
  in
  Alcotest.(check bool) "converged" true budgeted.Engine.converged;
  Alcotest.(check bool) "sizes bit-identical" true
    (free.Engine.sizes = budgeted.Engine.sizes)

let test_deadline_bounds_gp_rung () =
  (* A persistent fault breaks every solver rung at once, so the ladder
     reaches the GP rung with nearly all of a short deadline left.  The
     unbudgeted GP takes seconds on this DAG; budgeted, it stops at the
     deadline, and the baseline rung is not started after it.  The
     slack covers the final report's evaluation and one Newton step
     (milliseconds here), nowhere near the GP's seconds. *)
  let net =
    Circuit.Generate.random_dag
      {
        Circuit.Generate.default_spec with
        Circuit.Generate.n_gates = 300;
        n_pis = 40;
        target_depth = 20;
        seed = 7;
      }
  in
  let deadline = 0.25 and slack = 0.5 in
  let plan = Util.Fault.plan [ objective_site Util.Fault.Nan_value Util.Fault.Always ] in
  let t0 = Util.Instr.now_ns () in
  let s =
    solve_faulted
      ~options:{ Engine.default_options with Engine.deadline = Some deadline }
      plan net (Objective.Min_delay 0.)
  in
  let wall = float_of_int (Util.Instr.now_ns () - t0) /. 1e9 in
  if wall > deadline +. slack then
    Alcotest.failf "solve took %.2f s against a %.2f s deadline" wall deadline;
  Alcotest.(check bool) "not converged" false s.Engine.converged;
  Alcotest.(check bool) "no fallback adopted" true
    (not (List.exists (fun r -> r = Engine.Gp_fallback || r = Engine.Baseline_fallback) (rungs s)));
  Alcotest.(check bool) "sizes finite" true (Util.Guard.all_finite s.Engine.sizes)

(* ---- determinism ------------------------------------------------------------- *)

let test_faulted_solve_deterministic () =
  (* Same plan, same problem: identical recovery trail, fault log, and
     sizes — the keyed-Rng discipline at work. *)
  let run () =
    let net, obj = bounded_setup () in
    let plan =
      Util.Fault.plan ~seed:7
        [ objective_site Util.Fault.Nan_gradient (Util.Fault.First 1) ]
    in
    let s = solve_faulted plan net obj in
    (s, Util.Fault.log plan)
  in
  let s1, log1 = run () in
  let s2, log2 = run () in
  Alcotest.(check bool) "sizes bit-identical" true (s1.Engine.sizes = s2.Engine.sizes);
  Alcotest.(check bool) "same ladder" true (rungs s1 = rungs s2);
  Alcotest.(check bool) "same fault log" true (log1 = log2)

(* ---- instrumentation --------------------------------------------------------- *)

let test_recovery_counters () =
  Util.Instr.enable ();
  let net, obj = bounded_setup () in
  let plan = Util.Fault.plan [ objective_site Util.Fault.Nan_value (Util.Fault.First 1) ] in
  let _ = solve_faulted plan net obj in
  let snap = Util.Instr.snapshot () in
  let count name =
    match List.assoc_opt name snap.Util.Instr.counters with Some n -> n | None -> 0
  in
  Alcotest.(check bool) "recovery engaged" true (count "engine.recovery.engaged" >= 1);
  Alcotest.(check bool) "perturbed restart counted" true
    (count "engine.recovery.perturbed_restart" >= 1);
  Alcotest.(check bool) "auglag breakdowns counted" true (count "auglag.breakdowns" >= 1)

let () =
  Alcotest.run "resilience"
    [
      ( "clean",
        [
          Alcotest.test_case "no recovery on healthy solve" `Quick
            test_clean_solve_no_recovery;
          Alcotest.test_case "guard bit-identity" `Quick test_guard_bit_identity;
        ] );
      ( "faults",
        [
          Alcotest.test_case "NaN objective" `Quick test_nan_objective_recovers;
          Alcotest.test_case "Inf objective" `Quick test_inf_objective_recovers;
          Alcotest.test_case "NaN gradient" `Quick test_nan_gradient_recovers;
          Alcotest.test_case "Inf gradient" `Quick test_inf_gradient_recovers;
          Alcotest.test_case "persistent fault -> gp fallback" `Quick
            test_persistent_fault_reaches_gp;
          Alcotest.test_case "gp infeasible -> baseline" `Quick
            test_gp_infeasible_falls_through_to_baseline;
          Alcotest.test_case "min-delay persistent fault adopts gp" `Quick
            test_persistent_fault_min_delay_adopts_gp;
          Alcotest.test_case "no-recovery typed failure" `Quick
            test_no_recovery_reports_typed_failure;
          Alcotest.test_case "deeper rungs" `Quick test_repeated_fault_engages_deeper_rung;
        ] );
      ( "budgets",
        [
          Alcotest.test_case "evaluation budget" `Quick test_eval_budget_stops_ladder;
          Alcotest.test_case "immediate deadline" `Quick test_deadline_returns_best_effort;
          Alcotest.test_case "generous deadline unchanged" `Quick
            test_generous_deadline_unchanged;
          Alcotest.test_case "deadline bounds the gp rung" `Quick
            test_deadline_bounds_gp_rung;
        ] );
      ( "determinism",
        [ Alcotest.test_case "faulted solve" `Quick test_faulted_solve_deterministic ] );
      ( "instrumentation",
        [ Alcotest.test_case "recovery counters" `Quick test_recovery_counters ] );
    ]
