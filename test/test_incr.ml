(* Differential tests for the incremental SSTA engine (Sta.Incr).

   The headline harness drives randomized sparse size-delta sequences
   over generated and .bench netlists and asserts that the incremental
   engine is bit-identical to a from-scratch Ssta analysis at every
   step — values and gradients — at 1, 2 and 4 domains.  Further groups cover cache-hit/cutoff accounting,
   wholesale invalidation, every evaluation of whole sizing solves
   against a from-scratch reference, and the solver-facing invalidation
   edges (recovery-ladder restart, fault-injected breakdown, objective
   switch on a reused engine). *)

open Circuit

let model = Sigma_model.paper_default

(* Long-lived pools shared across tests (spawning is the expensive part). *)
let pool2 = Util.Pool.create ~jobs:2 ()
let pool4 = Util.Pool.create ~jobs:4 ()
let pools = [ (1, None); (2, Some pool2); (4, Some pool4) ]

(* ---- bit-level comparison helpers ------------------------------------------- *)

let bits = Int64.bits_of_float

let check_normal_identical msg (a : Statdelay.Normal.t) (b : Statdelay.Normal.t) =
  if
    not
      (Int64.equal (bits a.Statdelay.Normal.mu) (bits b.Statdelay.Normal.mu)
      && Int64.equal (bits a.Statdelay.Normal.var) (bits b.Statdelay.Normal.var))
  then
    Alcotest.failf "%s: (%h, %h) <> (%h, %h)" msg a.Statdelay.Normal.mu
      a.Statdelay.Normal.var b.Statdelay.Normal.mu b.Statdelay.Normal.var

let check_floats_identical msg (a : float array) (b : float array) =
  Alcotest.(check int) (msg ^ ": length") (Array.length a) (Array.length b);
  Array.iteri
    (fun i x ->
      if not (Int64.equal (bits x) (bits b.(i))) then
        Alcotest.failf "%s: slot %d: %h <> %h" msg i x b.(i))
    a

let check_results_identical msg (a : Sta.Ssta.result) (b : Sta.Ssta.result) =
  check_normal_identical (msg ^ ": circuit") a.Sta.Ssta.circuit b.Sta.Ssta.circuit;
  Array.iteri
    (fun i x -> check_normal_identical (msg ^ ": arrival") x b.Sta.Ssta.arrival.(i))
    a.Sta.Ssta.arrival;
  Array.iteri
    (fun i x ->
      check_normal_identical (msg ^ ": gate_delay") x b.Sta.Ssta.gate_delay.(i))
    a.Sta.Ssta.gate_delay;
  check_floats_identical (msg ^ ": loads") a.Sta.Ssta.loads b.Sta.Ssta.loads

(* ---- circuits under test ---------------------------------------------------- *)

let wide_dag ?(n_gates = 300) seed =
  Generate.random_dag
    {
      Generate.default_spec with
      Generate.n_gates;
      n_pis = 30;
      target_depth = 8;
      seed;
    }

(* examples/cla4.bench is a test/dune dep; `dune runtest` runs from the
   test build directory, a manual `dune exec` from the project root. *)
let bench_net =
  lazy
    (let path =
       match
         List.find_opt Sys.file_exists
           [ "../examples/cla4.bench"; "examples/cla4.bench" ]
       with
       | Some p -> p
       | None -> Alcotest.fail "examples/cla4.bench not found (is it a test dep?)"
     in
     match Bench_format.parse_file ~library:(Cell.Library.default ()) path with
     | Ok net -> net
     | Error e ->
         Alcotest.failf "cla4.bench: %s" (Format.asprintf "%a" Bench_format.pp_error e))

let nets_under_test () =
  [
    ("cla4.bench", Lazy.force bench_net);
    ("apex2*", Generate.apex2_like ());
    ("dag300", wide_dag 7);
  ]

(* ---- the differential harness ----------------------------------------------- *)

let basis_mu _ = { Sta.Ssta.d_mu = 1.; d_var = 0. }
let basis_var _ = { Sta.Ssta.d_mu = 0.; d_var = 1. }

(* The randomized driver is the shared simulation harness (lib/sim): a
   keyed-seed op sequence of sparse batch resizes, forward-only
   analyzes and gradient queries (rotating over the mu / var / mu+3sigma
   seed roots, as the bespoke driver here used to), with the invariant
   suite — incremental vs scratch vs boxed vs pooled, bitwise — run
   after every op.  Cache-hit coverage comes for free: each invariant
   check re-analyzes the unchanged point. *)
let diff_weights =
  {
    Sim.Gen.zero_weights with
    Sim.Gen.batch_resize = 40;
    resize = 10;
    analyze = 20;
    gradient = 30;
  }

(* Run a [steps]-op generated sequence on [net] under the full invariant
   suite, failing the test on the first violation.  Returns the
   engine-under-test's counters so callers can assert caching engaged. *)
let run_differential ?(jobs = 1) ?pool ~steps ~seed name net =
  let config = { Sim.Gen.default with Sim.Gen.n_ops = steps; weights = diff_weights } in
  let ops = Sim.Gen.sequence ~net ~seed config in
  let pools = match pool with None -> [] | Some p -> [ (jobs, p) ] in
  let report = Sim.Harness.run_net ~pools ?incr_pool:pool ~seed net ops in
  (match report.Sim.Harness.outcome with
  | Sim.Harness.Passed -> ()
  | Sim.Harness.Failed f ->
      Alcotest.failf
        "%s: invariant %S violated at op %d (%s)\n  %s\n  reproduce: seed %d, %d ops"
        name f.Sim.Harness.violation.Sim.Invariant.name f.Sim.Harness.step
        (Sim.Op.to_line f.Sim.Harness.op)
        f.Sim.Harness.violation.Sim.Invariant.detail seed steps);
  report.Sim.Harness.counters

let test_differential_all_circuits () =
  List.iter
    (fun (name, net) ->
      List.iter
        (fun (jobs, pool) ->
          let name = Printf.sprintf "%s jobs=%d" name jobs in
          let c = run_differential ~jobs ?pool ~steps:25 ~seed:(17 * jobs) name net in
          Alcotest.(check int) (name ^ ": one full sweep") 1 c.Sta.Incr.full_sweeps;
          Alcotest.(check bool)
            (name ^ ": cache hits happened")
            true
            (c.Sta.Incr.cache_hits > 0))
        pools)
    (nets_under_test ())

(* The re-sent-sizes steps must hit the cache without drifting, and the
   sparse deltas must keep the mean re-evaluated fraction below a full
   sweep per size-changing analyze.  Cache hits re-evaluate nothing and
   are left out of the denominator (as in [Incr.dirty_fraction]), so a
   full sweep on every size change reads exactly 1. *)
let test_dirty_fraction_below_one () =
  let net = wide_dag ~n_gates:400 11 in
  let c = run_differential ~steps:40 ~seed:3 "dag400" net in
  let evaluated = c.Sta.Incr.analyzes - c.Sta.Incr.cache_hits in
  Alcotest.(check bool) "size-changing analyzes" true (evaluated > 1);
  let eng_fraction =
    float_of_int c.Sta.Incr.gates_reevaluated
    /. (float_of_int evaluated *. float_of_int (Netlist.n_gates net))
  in
  Printf.printf "dirty fraction %.3f over %d size-changing analyzes\n" eng_fraction evaluated;
  Alcotest.(check bool) "fraction < 1" true (eng_fraction < 1.)

(* Phase-1 reuse needs bitwise-equal adjoints, which a sparse delta
   rarely preserves (any moved PO arrival perturbs the PO fold partials
   globally); the guaranteed case is re-differentiating an unchanged
   point with the same seed root. *)
let test_phase1_reuse_on_repeated_point () =
  let net = Generate.apex2_like () in
  let eng = Sta.Incr.create ~model net in
  let sizes = Netlist.min_sizes net in
  let _, g1 = Sta.Incr.value_and_gradient eng ~sizes ~seed:basis_mu in
  let c1 = Sta.Incr.counters eng in
  Alcotest.(check int) "first call recomputes" 0 c1.Sta.Incr.phase1_reused;
  let _, g2 = Sta.Incr.value_and_gradient eng ~sizes ~seed:basis_mu in
  let c2 = Sta.Incr.counters eng in
  check_floats_identical "repeat grad" g1 g2;
  Alcotest.(check int) "second call reuses everything"
    c1.Sta.Incr.phase1_recomputed c2.Sta.Incr.phase1_reused;
  Alcotest.(check int) "nothing recomputed on repeat" c1.Sta.Incr.phase1_recomputed
    c2.Sta.Incr.phase1_recomputed;
  (* A different seed root gets its own slot: no cross-talk, still exact. *)
  let g_var = Sta.Incr.gradient eng ~sizes ~seed:basis_var in
  let g_var_ref = Sta.Ssta.gradient ~model net ~sizes ~seed:basis_var in
  check_floats_identical "other-root grad" g_var_ref g_var

let prop_random_dag_differential =
  QCheck.Test.make ~name:"incremental bit-identical on random netlists" ~count:8
    (QCheck.make QCheck.Gen.(pair (int_range 0 10_000) (int_range 80 400)))
    (fun (seed, n_gates) ->
      let net = wide_dag ~n_gates (seed + 1) in
      let c = run_differential ~steps:12 ~seed:(seed + 13) "qcheck" net in
      c.Sta.Incr.analyzes >= 12)

(* ---- cache accounting ------------------------------------------------------- *)

let test_cache_hit_on_identical_sizes () =
  let net = Generate.apex2_like () in
  let eng = Sta.Incr.create ~model net in
  let sizes = Netlist.min_sizes net in
  ignore (Sta.Incr.analyze eng ~sizes);
  ignore (Sta.Incr.analyze eng ~sizes);
  ignore (Sta.Incr.analyze eng ~sizes:(Array.copy sizes));
  let c = Sta.Incr.counters eng in
  Alcotest.(check int) "analyzes" 3 c.Sta.Incr.analyzes;
  Alcotest.(check int) "full sweeps" 1 c.Sta.Incr.full_sweeps;
  Alcotest.(check int) "cache hits" 2 c.Sta.Incr.cache_hits;
  Alcotest.(check int) "reevaluated = n" (Netlist.n_gates net)
    c.Sta.Incr.gates_reevaluated

let test_single_gate_delta_touches_cone_only () =
  (* On a chain, changing the size of gate k re-evaluates its driver
     (load change), itself, and — the chain being a single path with no
     cutoff slack — its fan-out suffix; never the prefix before the
     driver. *)
  let net = Generate.chain ~length:60 () in
  let n = Netlist.n_gates net in
  let eng = Sta.Incr.create ~model net in
  let sizes = Array.copy (Netlist.min_sizes net) in
  ignore (Sta.Incr.analyze eng ~sizes);
  let k = 40 in
  sizes.(k) <- 2.5;
  let reference = Sta.Ssta.analyze ~model net ~sizes in
  let incremental = Sta.Incr.analyze eng ~sizes in
  check_results_identical "chain delta" reference incremental;
  let c = Sta.Incr.counters eng in
  let cone = n - k + 1 (* driver k-1, gate k, suffix k+1 .. n-1 *) in
  Alcotest.(check bool)
    (Printf.sprintf "reevaluated %d <= cone %d"
       (c.Sta.Incr.gates_reevaluated - n) cone)
    true
    (c.Sta.Incr.gates_reevaluated - n <= cone)

let test_invalidate_forces_full_sweep () =
  let net = Generate.apex2_like () in
  let eng = Sta.Incr.create ~model net in
  let sizes = Netlist.min_sizes net in
  ignore (Sta.Incr.analyze eng ~sizes);
  Sta.Incr.invalidate eng;
  let reference = Sta.Ssta.analyze ~model net ~sizes in
  let incremental = Sta.Incr.analyze eng ~sizes in
  check_results_identical "post-invalidate" reference incremental;
  let c = Sta.Incr.counters eng in
  Alcotest.(check int) "full sweeps" 2 c.Sta.Incr.full_sweeps;
  Alcotest.(check int) "cache hits" 0 c.Sta.Incr.cache_hits

(* A delta the engine refuses — out of the size box (caught by the
   validation of the changed entries, with [check_sizes]' message for
   the lowest offending gate) or just below 1 (caught by the gate
   kernel mid-pass) — must leave no trace: the next analyses and
   gradients are a from-scratch sweep's, bit for bit. *)
let test_refused_delta_leaves_engine_exact () =
  let net = Generate.apex2_like () in
  let eng = Sta.Incr.create ~model net in
  let base = Netlist.min_sizes net in
  let _, g0 = Sta.Incr.value_and_gradient eng ~sizes:base ~seed:basis_mu in
  ignore g0;
  let bad = Array.copy base in
  bad.(60) <- 99.;
  bad.(9) <- 0.5;
  let want =
    match Netlist.check_sizes net bad with
    | () -> Alcotest.fail "the test vector is valid"
    | exception Invalid_argument m -> m
  in
  Alcotest.check_raises "lowest offending gate" (Invalid_argument want) (fun () ->
      ignore (Sta.Incr.analyze eng ~sizes:bad));
  let below = Array.copy base in
  below.(30) <- 1. -. 1e-10;
  below.(31) <- 2.;
  Alcotest.check_raises "size below 1 in the kernel"
    (Invalid_argument "Cell.delay: size below 1") (fun () ->
      ignore (Sta.Incr.analyze eng ~sizes:below));
  let next = Array.copy base in
  next.(31) <- 2.;
  next.(5) <- 1.5;
  List.iter
    (fun (msg, sizes) ->
      check_results_identical msg (Sta.Ssta.analyze ~model net ~sizes)
        (Sta.Incr.analyze eng ~sizes);
      check_floats_identical (msg ^ " gradient")
        (Sta.Ssta.gradient ~model net ~sizes ~seed:basis_mu)
        (Sta.Incr.gradient eng ~sizes ~seed:basis_mu))
    [ ("after the refusals", next); ("back at the base", base) ]

(* ---- solver integration: invalidation edges --------------------------------- *)

(* A bounded-area problem that forces real solver work (the all-min
   start violates the delay bound). *)
let bounded_setup () =
  let net = Generate.tree () in
  let unsized, _ =
    Sizing.Engine.evaluate ~model net ~sizes:(Netlist.min_sizes net)
  in
  let bound = 0.9 *. Statdelay.Normal.mu unsized.Sta.Ssta.circuit in
  (net, Sizing.Objective.Min_area_bounded { k = 0.; bound })

(* Per-evaluation reference for a sizing solve.  The returned hook (for
   [options.instrument]) wraps every timing component the solver
   evaluates; after each call it re-times the point from scratch with
   [Ssta.value_and_gradient] (both basis seeds) on a separate arena and
   compares, Int64-equal:

   - the engine's circuit moments, read off its arena;
   - the engine's variance basis gradient, read off its arena's
     gradient plane (every cache miss differentiates the mean seed, then
     the variance seed, and a cache hit is at that same point);
   - the value and gradient the solver received, against the same
     functional of the reference moments and basis gradients, which
     pins the mean basis gradient.

   The area objective of the bounded problems never touches the timing
   engine and is passed through.  A mismatch is recorded, not raised
   (the solver guards its evaluations), and reported by [check]. *)
let per_eval_reference ~eng net objective =
  let scratch = Sta.Arena.create net in
  let eng_grad_var = Array.make (Netlist.n_gates net) 0. in
  let evaluated = ref 0 and failure = ref None in
  let fail fmt =
    Printf.ksprintf (fun m -> if !failure = None then failure := Some m) fmt
  in
  let same what a b =
    if not (Int64.equal (bits a) (bits b)) then
      fail "evaluation %d: %s: %h <> %h" !evaluated what a b
  in
  let same_array what a b =
    if Array.length a <> Array.length b then
      fail "evaluation %d: %s: length %d <> %d" !evaluated what (Array.length a)
        (Array.length b)
    else
      Array.iteri
        (fun i x ->
          if not (Int64.equal (bits x) (bits b.(i))) then
            fail "evaluation %d: %s slot %d: %h <> %h" !evaluated what i x b.(i))
        a
  in
  (* What a timing component computes from the circuit moments and the
     two basis gradients: mu + k sigma and its gradient, divided by the
     bound for the delay constraint. *)
  let mu_k_sigma ~k ~mu ~var ~gmu ~gvar =
    let dvar = Sta.Ssta.k_sigma_dvar ~k ~var in
    (mu +. (k *. sqrt var), Array.mapi (fun i g -> g +. (dvar *. gvar.(i))) gmu)
  in
  let functional ~component =
    match (objective, component) with
    | Sizing.Objective.Min_delay k, Nlp.Problem.Objective -> Some (mu_k_sigma ~k)
    | Sizing.Objective.Min_area_bounded { k; bound }, Nlp.Problem.Constraint 0 ->
        Some
          (fun ~mu ~var ~gmu ~gvar ->
            let v, g = mu_k_sigma ~k ~mu ~var ~gmu ~gvar in
            ((v /. bound) -. 1., Array.map (fun gi -> gi /. bound) g))
    | _ -> None
  in
  let hook problem =
    Nlp.Problem.map_components
      (fun ~component f ->
        match functional ~component with
        | None -> f
        | Some expected ->
            fun x ->
              let ((v, g) as out) = f x in
              incr evaluated;
              let res, gmu =
                Sta.Ssta.value_and_gradient ~arena:scratch ~model net ~sizes:x
                  ~seed:basis_mu
              in
              let gvar =
                Sta.Ssta.gradient ~arena:scratch ~model net ~sizes:x ~seed:basis_var
              in
              let mu = Statdelay.Normal.mu res.Sta.Ssta.circuit
              and var = Statdelay.Normal.var res.Sta.Ssta.circuit in
              let a = Sta.Incr.arena eng in
              same "circuit mu" (Sta.Arena.circuit_mu a) mu;
              same "circuit var" (Sta.Arena.circuit_var a) var;
              Sta.Arena.gradient_into a eng_grad_var;
              same_array "variance basis gradient" eng_grad_var gvar;
              let v_ref, g_ref = expected ~mu ~var ~gmu ~gvar in
              same "value" v v_ref;
              same_array "gradient" g g_ref;
              out)
      problem
  in
  let check name =
    (match !failure with Some m -> Alcotest.failf "%s: %s" name m | None -> ());
    if !evaluated = 0 then Alcotest.failf "%s: no timing evaluation seen" name
  in
  (hook, check)

(* Solve through a shared engine under the per-evaluation reference,
   then require the dirty cone to have engaged. *)
let solve_against_reference ?pool name net objective =
  let eng = Sta.Incr.create ?pool ~model net in
  let hook, check = per_eval_reference ~eng net objective in
  let options =
    { Sizing.Engine.default_options with Sizing.Engine.instrument = Some hook }
  in
  let s = Sizing.Engine.solve ~options ~timing:eng ?pool ~model net objective in
  check name;
  let frac = Sta.Incr.dirty_fraction eng in
  Printf.printf "%s: dirty fraction %.3f\n" name frac;
  if not (frac < 1.) then
    Alcotest.failf "%s: dirty fraction %.3f, the engine re-timed everything" name frac;
  s

let test_engine_incremental_bit_identical () =
  (* Every evaluation of a whole solver trajectory — thousands of them —
     must see the moments and gradients a from-scratch sweep gives. *)
  let net = wide_dag ~n_gates:150 41 in
  ignore (solve_against_reference "dag150" net (Sizing.Objective.Min_delay 3.))

(* The paper's bounded area minimisation on the Table-1 stand-ins
   (k = 3, bound 0.69 / 0.65 of the min-area mean), solved through a
   shared engine on a 2-domain pool: every evaluation of the solver
   trajectory must match the serial from-scratch reference bit for
   bit, while the engine re-evaluates only part of the circuit per
   analysis.  Release only, which keeps the dev-profile `dune runtest`
   short. *)
let test_bounded_table1_solves () =
  if not (Release_profile.kernels_inlined ()) then Alcotest.skip ()
  else
    List.iter
      (fun (name, net, fraction) ->
        let pool = pool2 in
        let unsized = Sizing.Engine.solve ~pool ~model net Sizing.Objective.Min_area in
        let objective =
          Sizing.Objective.Min_area_bounded
            { k = 3.; bound = fraction *. unsized.Sizing.Engine.mu }
        in
        ignore (solve_against_reference ~pool name net objective))
      [
        ("apex1*", Generate.apex1_like (), 0.69);
        ("k2*", Generate.k2_like (), 0.65);
      ]

let test_objective_switch_forces_full_sweep () =
  let net, bounded = bounded_setup () in
  let eng = Sta.Incr.create ~model net in
  let s1 = Sizing.Engine.solve ~timing:eng ~model net (Sizing.Objective.Min_delay 0.) in
  let sweeps_after_first = (Sta.Incr.counters eng).Sta.Incr.full_sweeps in
  Alcotest.(check bool) "first solve swept" true (sweeps_after_first >= 1);
  (* Same engine, different objective: the first attempt must not trust
     the previous objective's cached trajectory. *)
  let s2 = Sizing.Engine.solve ~timing:eng ~model net bounded in
  let c = Sta.Incr.counters eng in
  Alcotest.(check bool) "objective switch swept again" true
    (c.Sta.Incr.full_sweeps > sweeps_after_first);
  Alcotest.(check bool) "solves usable" true
    (s1.Sizing.Engine.converged && s2.Sizing.Engine.converged);
  (* And the shared-engine solve matches a solve on a fresh private
     engine. *)
  let fresh = Sizing.Engine.solve ~model net bounded in
  check_floats_identical "shared-engine sizes" fresh.Sizing.Engine.sizes
    s2.Sizing.Engine.sizes

let test_multistart_restarts_invalidate () =
  let net, bounded = bounded_setup () in
  let eng = Sta.Incr.create ~model net in
  let options = { Sizing.Engine.default_options with Sizing.Engine.restarts = 2 } in
  let _ = Sizing.Engine.solve ~options ~timing:eng ~model net bounded in
  let c = Sta.Incr.counters eng in
  (* initial + 2 restarts, each from an invalidated cache *)
  Alcotest.(check bool)
    (Printf.sprintf "full sweeps %d >= attempts 3" c.Sta.Incr.full_sweeps)
    true
    (c.Sta.Incr.full_sweeps >= 3)

let test_fault_recovery_invalidates () =
  (* A NaN injected into the first objective evaluation makes the initial
     attempt break down; every recovery rung the ladder then climbs must
     start from a wholesale-invalidated timing cache. *)
  let net, bounded = bounded_setup () in
  let eng = Sta.Incr.create ~model net in
  let plan =
    Util.Fault.plan
      [
        {
          Util.Fault.kind = Util.Fault.Nan_value;
          Util.Fault.component = Some 0;
          Util.Fault.trigger = Util.Fault.First 1;
        };
      ]
  in
  let inject problem =
    Nlp.Problem.map_components
      (fun ~component f ->
        Util.Fault.wrap plan ~component:(Nlp.Problem.component_index component) f)
      problem
  in
  let s =
    Sizing.Engine.solve
      ~options:
        { Sizing.Engine.default_options with Sizing.Engine.instrument = Some inject }
      ~timing:eng ~model net bounded
  in
  let attempts = 1 + List.length s.Sizing.Engine.recovery in
  let c = Sta.Incr.counters eng in
  Alcotest.(check bool) "recovery engaged" true (s.Sizing.Engine.recovery <> []);
  Alcotest.(check bool)
    (Printf.sprintf "full sweeps %d >= solver attempts" c.Sta.Incr.full_sweeps)
    true
    (c.Sta.Incr.full_sweeps >= min attempts 2)

let test_full_sweep_instr_counter () =
  (* The invalidation edges are also observable through the global
     incr.full_sweep counter (what statsize --profile reports). *)
  Util.Instr.reset ();
  Util.Instr.enable ();
  Fun.protect
    ~finally:(fun () ->
      Util.Instr.disable ();
      Util.Instr.reset ())
    (fun () ->
      let net, bounded = bounded_setup () in
      let eng = Sta.Incr.create ~model net in
      let _ = Sizing.Engine.solve ~timing:eng ~model net bounded in
      let _ = Sizing.Engine.solve ~timing:eng ~model net (Sizing.Objective.Min_delay 0.) in
      let snap = Util.Instr.snapshot () in
      let count name =
        match List.assoc_opt name snap.Util.Instr.counters with Some n -> n | None -> 0
      in
      Alcotest.(check bool) "incr.full_sweep >= 2" true (count "incr.full_sweep" >= 2);
      Alcotest.(check bool) "incr.analyze counted" true (count "incr.analyze" > 0);
      Alcotest.(check bool) "cutoffs or cache hits observed" true
        (count "incr.cache_hit" + count "incr.cutoff" > 0))

let test_timing_engine_netlist_mismatch () =
  let eng = Sta.Incr.create ~model (Generate.tree ()) in
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Engine.solve: timing engine bound to a different netlist")
    (fun () ->
      ignore
        (Sizing.Engine.solve ~timing:eng ~model (Generate.chain ~length:5 ())
           (Sizing.Objective.Min_delay 0.)))

(* ---- served what-ifs ----------------------------------------------------------

   The daemon's what-if path: a warm [Serve.Exec] target on a 6,000-gate
   DAG answers 300 what-ifs of 1-8 deltas from its committed sizes, with
   a committed-sizes gradient every 25th request.  Every answer must be
   Int64-equal to a fresh arena's from-scratch sweep, and the engine's
   counters must equal the goldens below: they pin which gates the dirty
   cone re-evaluates and cuts off (and what the reverse sweeps reuse),
   so a faster incremental pass must re-evaluate exactly the same gates.
   The sequence is keyed by a fixed seed, not QCHECK_SEED: the goldens
   belong to it. *)

let served_net =
  lazy
    (Generate.random_dag
       {
         Generate.default_spec with
         Generate.n_gates = 6_000;
         n_pis = 75;
         target_depth = 24;
         seed = 5;
       })

let served_counters_golden =
  {
    Sta.Incr.analyzes = 324;
    cache_hits = 16;
    full_sweeps = 1;
    gates_reevaluated = 1_126_146;
    cutoffs = 444;
    gradients = 12;
    phase1_reused = 0;
    phase1_recomputed = 71_988;
    partials_reused = 10_664;
  }

let served_whatifs ?pool () =
  let net = Lazy.force served_net in
  let n = Netlist.n_gates net in
  let rng = Util.Rng.keyed 24 ~key:0 in
  let smax = Netlist.max_sizes net in
  let draw g = Float.min smax.(g) (1. +. Float.round (4. *. Util.Rng.float rng) /. 2.) in
  let committed = Array.init n draw in
  let target = Serve.Exec.create ?pool ~sizes:committed ~model net in
  let reference = Sta.Arena.create net in
  let grad = Array.make n 0. in
  let same a b = Int64.equal (bits a) (bits b) in
  for step = 1 to 300 do
    let k = 1 + Util.Rng.int rng 8 in
    let deltas =
      Array.init k (fun _ ->
          let g = Util.Rng.int rng n in
          (g, draw g))
    in
    let sizes = Array.copy committed in
    Array.iter (fun (g, s) -> sizes.(g) <- s) deltas;
    Sta.Arena.forward ~model reference ~sizes;
    (match Serve.Exec.exec target (Serve.Protocol.Whatif { deltas }) with
    | Serve.Protocol.Analysis { mu; var; _ } ->
        if
          not
            (same mu (Sta.Arena.circuit_mu reference)
            && same var (Sta.Arena.circuit_var reference))
        then
          Alcotest.failf "what-if %d: (%h, %h) <> sweep (%h, %h)" step mu var
            (Sta.Arena.circuit_mu reference) (Sta.Arena.circuit_var reference)
    | _ -> Alcotest.failf "what-if %d: not an analysis" step);
    if step mod 25 = 0 then begin
      Sta.Arena.forward ~model reference ~sizes:committed;
      Sta.Arena.reverse ~model reference ~d_mu:1. ~d_var:0.;
      Sta.Arena.gradient_into reference grad;
      match
        Serve.Exec.exec target
          (Serve.Protocol.Gradient
             { sizes = Serve.Protocol.Committed; seed = Serve.Protocol.Seed_mu })
      with
      | Serve.Protocol.Gradient_result { value; gradient } ->
          if not (same value (Sta.Arena.circuit_mu reference)) then
            Alcotest.failf "gradient %d: value %h" step value;
          check_floats_identical (Printf.sprintf "gradient %d" step) gradient grad
      | _ -> Alcotest.failf "gradient %d: not a gradient" step
    end
  done;
  Sta.Incr.counters target.Serve.Exec.incr

let check_counters msg (g : Sta.Incr.counters) (c : Sta.Incr.counters) =
  let f name a b = Alcotest.(check int) (msg ^ ": " ^ name) a b in
  f "analyzes" g.analyzes c.analyzes;
  f "cache_hits" g.cache_hits c.cache_hits;
  f "full_sweeps" g.full_sweeps c.full_sweeps;
  f "gates_reevaluated" g.gates_reevaluated c.gates_reevaluated;
  f "cutoffs" g.cutoffs c.cutoffs;
  f "gradients" g.gradients c.gradients;
  f "phase1_reused" g.phase1_reused c.phase1_reused;
  f "phase1_recomputed" g.phase1_recomputed c.phase1_recomputed;
  f "partials_reused" g.partials_reused c.partials_reused

let test_served_whatifs () =
  List.iter
    (fun (jobs, pool) ->
      let c = served_whatifs ?pool () in
      Printf.printf "jobs=%d: %d gates re-evaluated, %d cut off\n" jobs
        c.gates_reevaluated c.cutoffs;
      check_counters (Printf.sprintf "jobs=%d" jobs) served_counters_golden c)
    [ (1, None); (2, Some pool2) ]

let () =
  let open Alcotest in
  run "incr"
    [
      ( "differential",
        [
          test_case "all circuits x 1/2/4 domains" `Quick test_differential_all_circuits;
          test_case "dirty fraction < 1" `Quick test_dirty_fraction_below_one;
          test_case "phase-1 reuse on repeated point" `Quick
            test_phase1_reuse_on_repeated_point;
          Seed_info.to_alcotest prop_random_dag_differential;
        ] );
      ( "cache",
        [
          test_case "hit on identical sizes" `Quick test_cache_hit_on_identical_sizes;
          test_case "single-gate delta cone" `Quick test_single_gate_delta_touches_cone_only;
          test_case "invalidate" `Quick test_invalidate_forces_full_sweep;
          test_case "served what-ifs" `Quick test_served_whatifs;
          test_case "refused delta leaves the engine exact" `Quick
            test_refused_delta_leaves_engine_exact;
        ] );
      ( "engine",
        [
          test_case "incremental solve bit-identical" `Quick
            test_engine_incremental_bit_identical;
          test_case "Table-1 bounded solves (release only)" `Slow
            test_bounded_table1_solves;
          test_case "objective switch invalidates" `Quick
            test_objective_switch_forces_full_sweep;
          test_case "multi-start restarts invalidate" `Quick
            test_multistart_restarts_invalidate;
          test_case "fault recovery invalidates" `Quick test_fault_recovery_invalidates;
          test_case "incr.full_sweep counter" `Quick test_full_sweep_instr_counter;
          test_case "netlist mismatch rejected" `Quick
            test_timing_engine_netlist_mismatch;
        ] );
    ]
