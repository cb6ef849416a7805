(* Differential tests for the flat structure-of-arrays timing arena.

   Sim.Boxed_ssta is the pre-refactor record-based implementation kept
   verbatim as a serial golden oracle: every arena-backed engine entry
   point must produce Int64-bit-identical values AND gradients against
   it, on generated and .bench circuits, with the arena side at 1, 2
   and 4 domains, across arena reuse (the same planes swept at many
   size vectors).  A second group
   is a Gc-based regression test: a steady-state forward (and reverse)
   sweep on a reused arena must not allocate — strictly in the release
   profile where the Clark kernels inline, within a loose per-gate
   ceiling in the dev profile (whose -opaque flag blocks cross-library
   inlining and re-boxes kernel arguments). *)

open Circuit

let model = Sigma_model.paper_default
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

let cla4_path () =
  match
    List.find_opt Sys.file_exists [ "../examples/cla4.bench"; "examples/cla4.bench" ]
  with
  | Some p -> p
  | None -> Alcotest.fail "examples/cla4.bench not found (is it a test dep?)"

let bench_net =
  lazy
    (match Bench_format.parse_file ~library:(Cell.Library.default ()) (cla4_path ()) with
     | Ok net -> net
     | Error e ->
         Alcotest.failf "cla4.bench: %s" (Format.asprintf "%a" Bench_format.pp_error e))

let nets_under_test () =
  [
    ("fig2", Generate.example_fig2 ());
    ("tree", Generate.tree ());
    ("cla4.bench", Lazy.force bench_net);
    ("apex2*", Generate.apex2_like ());
    ("dag300", wide_dag 13);
  ]

(* ---- differential harness --------------------------------------------------- *)

let basis_mu _ = { Sta.Ssta.d_mu = 1.; d_var = 0. }
let basis_var _ = { Sta.Ssta.d_mu = 0.; d_var = 1. }

let seed_for step =
  match step mod 3 with
  | 0 -> ("mu", basis_mu)
  | 1 -> ("var", basis_var)
  | _ -> ("mu+3s", Sta.Ssta.mu_plus_k_sigma_seed 3.)

(* Sweep the SAME arena at a sequence of random interior points,
   asserting every snapshot and gradient bit-identical to the boxed
   golden path. *)
let run_differential ?pool ~steps ~seed name net =
  let rng = Util.Rng.create seed in
  let arena = Sta.Arena.create net in
  let n = Netlist.n_gates net in
  let maxs = Netlist.max_sizes net in
  let sizes = Array.copy (Netlist.min_sizes net) in
  for step = 1 to steps do
    for _ = 1 to 1 + Util.Rng.int rng (max 1 (n / 10)) do
      let i = Util.Rng.int rng n in
      sizes.(i) <- Util.Rng.uniform rng ~lo:1.0 ~hi:maxs.(i)
    done;
    let msg = Printf.sprintf "%s step %d" name step in
    if step mod 4 = 0 then
      check_results_identical msg
        (Sim.Boxed_ssta.analyze ~model net ~sizes)
        (Sta.Ssta.analyze ?pool ~arena ~model net ~sizes)
    else begin
      let seed_name, seedf = seed_for step in
      let msg = Printf.sprintf "%s (%s)" msg seed_name in
      let res_b, grad_b =
        Sim.Boxed_ssta.value_and_gradient ~model net ~sizes ~seed:seedf
      in
      let res_a, grad_a =
        Sta.Ssta.value_and_gradient ?pool ~arena ~model net ~sizes ~seed:seedf
      in
      check_results_identical msg res_b res_a;
      check_floats_identical (msg ^ ": grad") grad_b grad_a
    end
  done

let test_differential_all_circuits () =
  List.iter
    (fun (name, net) ->
      List.iter
        (fun (jobs, pool) ->
          let name = Printf.sprintf "%s jobs=%d" name jobs in
          run_differential ?pool ~steps:12 ~seed:(31 * jobs) name net)
        pools)
    (nets_under_test ())

(* Non-default primary-input arrivals exercise the pi planes. *)
let test_differential_pi_arrival () =
  let net = Generate.apex2_like () in
  let sizes = Netlist.min_sizes net in
  let pi_arrival i =
    Statdelay.Normal.make ~mu:(0.1 *. float_of_int (i mod 5)) ~sigma:0.05
  in
  let seedf = Sta.Ssta.mu_plus_k_sigma_seed 3. in
  let res_b, grad_b =
    Sim.Boxed_ssta.value_and_gradient ~pi_arrival ~model net ~sizes ~seed:seedf
  in
  let res_a, grad_a =
    Sta.Ssta.value_and_gradient ~pi_arrival ~model net ~sizes ~seed:seedf
  in
  check_results_identical "pi arrivals" res_b res_a;
  check_floats_identical "pi arrivals: grad" grad_b grad_a

(* The satellite engines must not drift when handed an arena. *)
let test_engines_arena_identical () =
  let net = Generate.apex2_like () in
  let sizes = Netlist.min_sizes net in
  let arena = Sta.Arena.create net in
  let mc = Sta.Mcsta.sample ~seed:5 ~model net ~sizes ~n:256 in
  let mc_arena = Sta.Mcsta.sample ~arena ~seed:5 ~model net ~sizes ~n:256 in
  check_floats_identical "mcsta samples" mc mc_arena;
  let y =
    Sta.Yield.sample_circuit_delays ~rng:(Util.Rng.create 7) ~model net ~sizes
      ~n:64
  in
  let y_arena =
    Sta.Yield.sample_circuit_delays ~rng:(Util.Rng.create 7) ~arena ~model net
      ~sizes ~n:64
  in
  check_floats_identical "yield samples" y y_arena;
  let c = Sta.Crit.monte_carlo ~rng:(Util.Rng.create 11) ~model net ~sizes ~n:64 in
  let c_arena =
    Sta.Crit.monte_carlo ~rng:(Util.Rng.create 11) ~arena ~model net ~sizes ~n:64
  in
  check_floats_identical "criticalities" c.Sta.Crit.criticality
    c_arena.Sta.Crit.criticality

(* Dsta.propagate_into against its allocating wrapper. *)
let test_propagate_into_identical () =
  let net = Generate.apex2_like () in
  let sizes = Netlist.min_sizes net in
  let gate_delay = Sta.Dsta.delays net ~sizes in
  let r = Sta.Dsta.analyze_with_delays net ~gate_delay in
  let arrival = Array.make (Netlist.n_gates net) nan in
  let circuit = Sta.Dsta.propagate_into net ~gate_delay ~arrival in
  check_floats_identical "arrival" r.Sta.Dsta.arrival arrival;
  check_floats_identical "circuit" [| r.Sta.Dsta.circuit |] [| circuit |]

let test_arena_netlist_mismatch () =
  let arena = Sta.Arena.create (Generate.tree ()) in
  let net = Generate.example_fig2 () in
  Alcotest.check_raises "wrong netlist"
    (Invalid_argument "Ssta: arena was created for a different netlist")
    (fun () ->
      ignore (Sta.Ssta.analyze ~arena ~model net ~sizes:(Netlist.min_sizes net)))

let prop_random_dag_differential =
  QCheck.Test.make ~name:"arena bit-identical on random netlists" ~count:8
    (QCheck.make QCheck.Gen.(pair (int_range 0 10_000) (int_range 80 400)))
    (fun (seed, n_gates) ->
      let net = wide_dag ~n_gates (seed + 1) in
      run_differential ~steps:6 ~seed
        (Printf.sprintf "dag%d seed=%d" n_gates seed)
        net;
      true)

(* ---- streaming loader vs the worklist oracle -------------------------------- *)

(* The loader that feeds the arenas (through Bench_stream, the name the
   benchmark loads with) against Bench_oracle, the worklist elaborator
   it replaced.  With gate ids equal, the two netlists must sweep to
   Int64-bit-identical values and gradients at the same size vectors,
   each on an arena of its own, at 1, 2 and 4 domains. *)
let test_loader_sweeps_match_oracle () =
  let library = Cell.Library.default () in
  let text = In_channel.with_open_bin (cla4_path ()) In_channel.input_all in
  let loaded =
    match Bench_stream.parse_string ~library text with
    | Ok net -> net
    | Error e ->
        Alcotest.failf "loader: %s" (Format.asprintf "%a" Bench_format.pp_error e)
  in
  let oracle =
    match Bench_oracle.parse_string ~library text with
    | Ok net -> net
    | Error m -> Alcotest.failf "oracle: %s" m
  in
  let n = Netlist.n_gates oracle in
  Alcotest.(check int) "n_gates" n (Netlist.n_gates loaded);
  let maxs = Netlist.max_sizes oracle in
  List.iter
    (fun (jobs, pool) ->
      let rng = Util.Rng.create (17 * jobs) in
      let arena_o = Sta.Arena.create oracle and arena_l = Sta.Arena.create loaded in
      let sizes = Array.copy (Netlist.min_sizes oracle) in
      for step = 1 to 6 do
        for _ = 1 to 1 + Util.Rng.int rng (max 1 (n / 10)) do
          let i = Util.Rng.int rng n in
          sizes.(i) <- Util.Rng.uniform rng ~lo:1.0 ~hi:maxs.(i)
        done;
        let seed_name, seedf = seed_for step in
        let msg = Printf.sprintf "cla4.bench jobs=%d step %d (%s)" jobs step seed_name in
        let res_o, grad_o =
          Sta.Ssta.value_and_gradient ?pool ~arena:arena_o ~model oracle ~sizes
            ~seed:seedf
        in
        let res_l, grad_l =
          Sta.Ssta.value_and_gradient ?pool ~arena:arena_l ~model loaded ~sizes
            ~seed:seedf
        in
        check_results_identical msg res_o res_l;
        check_floats_identical (msg ^ ": grad") grad_o grad_l
      done)
    pools

(* ---- zero-allocation regression --------------------------------------------- *)

(* ---- uninitialised planes ------------------------------------------------------

   Arena planes are not zero-filled, and the adjoint planes come into
   being on the first reverse sweep: every sweep must write a slot
   before it reads it.  These tests NaN-fill every plane but the
   primary-input tails of [arr] and [asens] (the only slots no sweep
   writes; [create] zeroes them) and require sweeps and gradients
   bit-identical to an arena that was never poisoned. *)

let grid17 = Varmodel.make ~grid:4 ~global_frac:0.25 ~grid_frac:0.25 ()

let poison (a : Sta.Arena.t) =
  Sta.Arena.ensure_adjoint a;
  let fill v = Bigarray.Array1.fill v Float.nan in
  let fill_head v len = Bigarray.Array1.fill (Bigarray.Array1.sub v 0 len) Float.nan in
  List.iter fill
    Sta.Arena.
      [
        a.sizes; a.load; a.del; a.pre; a.opnd; a.fosz; a.pp; a.adj; a.dmu_t; a.fadj;
        a.grad; a.presens; a.sadj; a.fsadj; a.cpp;
      ];
  fill_head a.Sta.Arena.arr (2 * a.Sta.Arena.n);
  fill_head a.Sta.Arena.asens (max 1 (a.Sta.Arena.p * a.Sta.Arena.n));
  Bytes.fill a.Sta.Arena.active 0 (Bytes.length a.Sta.Arena.active) '\255'

let poison_sizes net k =
  let rng = Util.Rng.keyed 31 ~key:k in
  let maxs = Netlist.max_sizes net in
  Array.map (fun m -> Util.Rng.uniform rng ~lo:1.0 ~hi:m) maxs

(* A fresh arena, poisoned before every sweep, against a clean one: the
   independent and the p = 17 canonical arena, at 1, 2 and 4 domains. *)
let test_poisoned_arena_planes () =
  let net = Generate.apex1_like () in
  List.iter
    (fun (vname, varmodel) ->
      List.iter
        (fun (jobs, pool) ->
          let clean = Sta.Arena.create ~varmodel net in
          let dirty = Sta.Arena.create ~varmodel net in
          for k = 0 to 3 do
            let sizes = poison_sizes net k and _, seed = seed_for k in
            let msg = Printf.sprintf "%s jobs=%d point %d" vname jobs k in
            poison dirty;
            let r0, g0 =
              Sta.Ssta.value_and_gradient ~arena:clean ~varmodel ~model net ~sizes ~seed
            in
            let r1, g1 =
              Sta.Ssta.value_and_gradient ?pool ~arena:dirty ~varmodel ~model net ~sizes
                ~seed
            in
            check_results_identical msg r0 r1;
            check_floats_identical (msg ^ ": grad") g0 g1
          done)
        pools)
    [ ("independent", Varmodel.independent); ("p=17", grid17) ]

(* An incremental engine whose arena was poisoned when it was made:
   analyses, sparse deltas and both basis-seed gradients against a
   from-scratch sweep. *)
let test_poisoned_incr_planes () =
  let net = Generate.apex1_like () in
  let n = Netlist.n_gates net in
  List.iter
    (fun (vname, varmodel) ->
      List.iter
        (fun (jobs, pool) ->
          let eng = Sta.Incr.create ?pool ~varmodel ~model net in
          poison (Sta.Incr.arena eng);
          let clean = Sta.Arena.create ~varmodel net in
          let sizes = poison_sizes net 7 in
          let rng = Util.Rng.keyed 37 ~key:jobs in
          for k = 0 to 5 do
            let msg = Printf.sprintf "%s jobs=%d step %d" vname jobs k in
            if k > 0 then
              for _ = 1 to 4 do
                let g = Util.Rng.int rng n in
                sizes.(g) <- Float.min 3. (sizes.(g) +. 0.5)
              done;
            check_results_identical msg
              (Sta.Ssta.analyze ~arena:clean ~varmodel ~model net ~sizes)
              (Sta.Incr.analyze eng ~sizes);
            List.iter
              (fun seed ->
                check_floats_identical (msg ^ ": grad")
                  (snd (Sta.Ssta.value_and_gradient ~arena:clean ~varmodel ~model net ~sizes ~seed))
                  (Sta.Incr.gradient eng ~sizes ~seed))
              [ basis_mu; basis_var ]
          done)
        pools)
    [ ("independent", Varmodel.independent); ("p=17", grid17) ]

(* An engine that has answered only analyses and what-ifs never
   allocated adjoint state: each adjoint plane is still its 1-element
   stub.  The first gradient allocates them. *)
let adjoint_dims (a : Sta.Arena.t) =
  let d = Bigarray.Array1.dim in
  Sta.Arena.
    [
      ("pp", d a.pp); ("adj", d a.adj); ("dmu_t", d a.dmu_t);
      ("active", Bytes.length a.active); ("fadj", d a.fadj); ("grad", d a.grad);
      ("sadj", d a.sadj); ("fsadj", d a.fsadj); ("cpp", d a.cpp);
    ]

let test_forward_only_engine_has_no_adjoint_planes () =
  let net = Generate.apex1_like () in
  let target = Serve.Exec.create ~model net in
  let served body = ignore (Serve.Exec.exec target body) in
  served (Serve.Protocol.Analyze { sizes = Serve.Protocol.Committed });
  for g = 0 to 9 do
    served (Serve.Protocol.Whatif { deltas = [| (7 * g, 2.0); (g, 1.5) |] })
  done;
  served (Serve.Protocol.Analyze { sizes = Serve.Protocol.Uniform 1.5 });
  let canon = Sta.Incr.create ~varmodel:grid17 ~model net in
  ignore (Sta.Incr.analyze canon ~sizes:(Netlist.min_sizes net));
  let arena = Sta.Arena.create net in
  ignore (Sta.Ssta.analyze ~arena ~model net ~sizes:(Netlist.min_sizes net));
  List.iter
    (fun (who, a) ->
      List.iter
        (fun (plane, dim) ->
          if dim > 1 then Alcotest.failf "%s: adjoint plane %s holds %d slots" who plane dim)
        (adjoint_dims a))
    [
      ("served engine", Sta.Incr.arena target.Serve.Exec.incr);
      ("p=17 engine", Sta.Incr.arena canon);
      ("analysed arena", arena);
    ];
  served
    (Serve.Protocol.Gradient { sizes = Serve.Protocol.Committed; seed = Serve.Protocol.Seed_mu });
  let a = Sta.Incr.arena target.Serve.Exec.incr in
  Alcotest.(check int) "a gradient allocates the gradient plane" (Netlist.n_gates net)
    (Bigarray.Array1.dim a.Sta.Arena.grad)

let words_per_eval ~reps f =
  f ();
  Gc.full_major ();
  let w0 = Gc.minor_words () in
  for _ = 1 to reps do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int reps

let test_steady_state_allocation () =
  let net = wide_dag ~n_gates:400 29 in
  let n = Netlist.n_gates net in
  let sizes = Netlist.min_sizes net in
  let arena = Sta.Arena.create net in
  (* Strict bound when the kernels inline: a handful of words from the
     instrumentation shims ([Gc.minor_words] itself boxes, [Instr.time]
     closes over the section).  Loose per-gate ceiling otherwise (boxed
     kernel arguments only — still far below the boxed sweeps' hundreds
     of words per gate). *)
  let ceiling =
    if Release_profile.kernels_inlined () then 256. else 128. *. float_of_int n
  in
  let w_fwd =
    words_per_eval ~reps:10 (fun () -> Sta.Ssta.forward_raw ~model arena ~sizes)
  in
  if w_fwd > ceiling then
    Alcotest.failf "steady-state forward sweep allocates %.0f words/eval (ceiling %.0f)"
      w_fwd ceiling;
  let w_rev =
    words_per_eval ~reps:10 (fun () ->
        Sta.Ssta.forward_raw ~model arena ~sizes;
        Sta.Ssta.reverse_raw ~model arena ~d_mu:1. ~d_var:0.)
  in
  if w_rev > 2. *. ceiling then
    Alcotest.failf
      "steady-state forward+reverse pair allocates %.0f words/eval (ceiling %.0f)"
      w_rev (2. *. ceiling)

(* ---- golden structure ------------------------------------------------------- *)

(* The seed-77 generated DAGs at 2,400 and 24,000 gates, the two small
   sizes of the committed BENCH_2026-08-*.json records: the generator
   must still describe the same circuits, and the min-size circuit
   moments must still carry the recorded bits (any drift means the
   sweep's arithmetic changed).  [depth] is the records' field, the
   number of level boundaries: levels - 1. *)
let test_golden_structure () =
  List.iter
    (fun (n_gates, n_pis, target_depth, depth, levels, fanin_edges, mu, var) ->
      let net =
        Generate.random_dag
          { Generate.default_spec with Generate.n_gates; n_pis; target_depth; seed = 77 }
      in
      let msg what = Printf.sprintf "%d gates: %s" n_gates what in
      let fl = Netlist.flat net in
      Alcotest.(check int) (msg "n_gates") n_gates (Netlist.n_gates net);
      Alcotest.(check int) (msg "n_pis") n_pis (Netlist.n_pis net);
      Alcotest.(check int) (msg "levels") levels (Array.length fl.Netlist.lvl_off - 1);
      Alcotest.(check int) (msg "depth") depth (Netlist.depth net - 1);
      Alcotest.(check int) (msg "fanin edges") fanin_edges fl.Netlist.fi_off.(n_gates);
      let arena = Sta.Arena.create net in
      Sta.Ssta.forward_raw ~model arena ~sizes:(Netlist.min_sizes net);
      check_normal_identical (msg "circuit moments") { Statdelay.Normal.mu; var }
        {
          Statdelay.Normal.mu = Sta.Arena.circuit_mu arena;
          var = Sta.Arena.circuit_var arena;
        })
    [
      (2_400, 96, 12, 11, 12, 5341, 0x1.f647736d13e01p+4, 0x1.bb2e2324c4p-3);
      (24_000, 300, 24, 23, 24, 53348, 0x1.01a4c054cb953p+6, 0x1.7fede27f3p-3);
    ]

(* ---- large-DAG smoke -------------------------------------------------------- *)

(* A 10^5-gate generated DAG swept forward and reverse on one arena.
   Only meaningful in the release profile (where the kernels inline
   and the sweep speed makes it cheap); the dev profile skips it, via
   the same inlining canary the allocation test keys on. *)
let test_large_dag_smoke () =
  if not (Release_profile.kernels_inlined ()) then
    Alcotest.skip ()
  else begin
    let net =
      Generate.random_dag
        {
          Generate.default_spec with
          Generate.n_gates = 120_000;
          n_pis = 300;
          target_depth = 32;
          seed = 101;
        }
    in
    let arena = Sta.Arena.create net in
    let sizes = Netlist.min_sizes net in
    Sta.Ssta.forward_raw ~model arena ~sizes;
    let mu = Sta.Arena.circuit_mu arena and var = Sta.Arena.circuit_var arena in
    if not (Float.is_finite mu && Float.is_finite var && mu > 0. && var >= 0.)
    then Alcotest.failf "degenerate circuit moments (%h, %h)" mu var;
    Sta.Ssta.reverse_raw ~model arena ~d_mu:1. ~d_var:0.;
    let grad = Array.make (Netlist.n_gates net) 0. in
    Sta.Arena.gradient_into arena grad;
    let nonzero = Array.exists (fun g -> g <> 0.) grad in
    if not nonzero then Alcotest.fail "gradient identically zero";
    if not (Array.for_all Float.is_finite grad) then
      Alcotest.fail "non-finite gradient entry"
  end

let () =
  let q = Seed_info.to_alcotest in
  Alcotest.run "arena"
    [
      ( "differential",
        [
          Alcotest.test_case "all circuits x 1/2/4 domains" `Quick
            test_differential_all_circuits;
          Alcotest.test_case "pi arrivals" `Quick test_differential_pi_arrival;
          Alcotest.test_case "satellite engines" `Quick test_engines_arena_identical;
          Alcotest.test_case "dsta propagate_into" `Quick
            test_propagate_into_identical;
          Alcotest.test_case "poisoned arena planes" `Quick test_poisoned_arena_planes;
          Alcotest.test_case "poisoned incremental planes" `Quick
            test_poisoned_incr_planes;
          Alcotest.test_case "forward-only engines hold no adjoint planes" `Quick
            test_forward_only_engine_has_no_adjoint_planes;
          Alcotest.test_case "netlist mismatch rejected" `Quick
            test_arena_netlist_mismatch;
          q prop_random_dag_differential;
        ] );
      ( "streaming loader",
        [
          Alcotest.test_case "gradients match the oracle" `Quick
            test_loader_sweeps_match_oracle;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "steady-state sweeps" `Quick
            test_steady_state_allocation;
        ] );
      ( "golden",
        [
          Alcotest.test_case "seed-77 DAG structure and moments" `Quick
            test_golden_structure;
        ] );
      ( "scale",
        [
          Alcotest.test_case "100k-gate smoke (release only)" `Slow
            test_large_dag_smoke;
        ] );
    ]
