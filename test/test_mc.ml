(* Tests for the batched circuit-level Monte Carlo SSTA oracle
   (Sta.Mcsta) and its differential/property layer:

   - determinism: Int64-bitwise-identical samples for any batch size and
     any domain count (the engine's core contract),
   - differential agreement with the analytic Clark engine on
     independence-respecting circuits, with tolerances budgeted from
     Statdelay.Mc.standard_errors plus the known fold bias,
   - directional checks on reconvergent DAGs (where the paper's
     independence assumption is only an approximation),
   - the deterministic limit: sigma -> 0 collapses both Ssta and Mcsta
     onto Dsta exactly,
   - the Section-4 conformance claim (50% / 84.1% / 99.8%) on the sized
     tree, within the binomial confidence interval plus the documented
     model bias. *)

open Circuit
module Mcsta = Sta.Mcsta

let model = Sigma_model.paper_default
let bits = Int64.bits_of_float

(* The pooled tests default to 2- and 4-domain pools; CI overrides the
   larger one via STATSIZE_TEST_JOBS to pin the pooled path width. *)
let big_jobs =
  match Sys.getenv_opt "STATSIZE_TEST_JOBS" with
  | Some s -> (match int_of_string_opt s with Some j when j >= 2 -> j | _ -> 4)
  | None -> 4

let pool2 = Util.Pool.create ~jobs:2 ()
let pool_big = Util.Pool.create ~jobs:big_jobs ()

let wide_dag ?(n_gates = 600) seed =
  Generate.random_dag
    {
      Generate.default_spec with
      Generate.n_gates;
      n_pis = 40;
      target_depth = 8;
      seed;
    }

let check_samples_identical msg a b =
  Alcotest.(check int) (msg ^ ": length") (Array.length a) (Array.length b);
  Array.iteri
    (fun i x ->
      if not (Int64.equal (bits x) (bits b.(i))) then
        Alcotest.failf "%s: sample %d differs (%h vs %h)" msg i x b.(i))
    a

(* ---- determinism ------------------------------------------------------------ *)

let test_batch_invariance () =
  let net = Generate.apex2_like () in
  let sizes = Netlist.min_sizes net in
  let reference = Mcsta.sample ~model ~seed:3 ~batch:1024 net ~sizes ~n:777 in
  List.iter
    (fun batch ->
      let s = Mcsta.sample ~model ~seed:3 ~batch net ~sizes ~n:777 in
      check_samples_identical (Printf.sprintf "batch %d" batch) reference s)
    [ 1; 7; 64; 777; 4096 ]

let test_pool_invariance () =
  let net = wide_dag 51 in
  let sizes = Netlist.min_sizes net in
  let serial = Mcsta.sample ~model ~seed:5 net ~sizes ~n:512 in
  List.iter
    (fun (label, pool) ->
      (* Vary the batch size at the same time: neither knob may matter. *)
      List.iter
        (fun batch ->
          let s = Mcsta.sample ~pool ~batch ~model ~seed:5 net ~sizes ~n:512 in
          check_samples_identical (Printf.sprintf "%s batch %d" label batch) serial s)
        [ 64; 512 ])
    [ ("2 domains", pool2); (Printf.sprintf "%d domains" big_jobs, pool_big) ]

(* A pseudo-random .bench text: [n_in] inputs, [n_gates] gates of one
   to three fanins over earlier nets (reconvergence and shared fanins
   included), the last 16 gates as outputs. *)
let random_bench_text ~n_in ~n_gates seed =
  let rand = Random.State.make [| seed |] in
  let buf = Buffer.create (64 * n_gates) in
  let net i = if i < n_in then Printf.sprintf "i%d" i else Printf.sprintf "g%d" (i - n_in) in
  for i = 0 to n_in - 1 do
    Printf.bprintf buf "INPUT(i%d)\n" i
  done;
  for g = n_gates - 16 to n_gates - 1 do
    Printf.bprintf buf "OUTPUT(g%d)\n" g
  done;
  for g = 0 to n_gates - 1 do
    let k = 1 + Random.State.int rand 3 in
    let args =
      List.init k (fun _ ->
          (* Mostly recent nets, so the DAG is deep as well as wide. *)
          let avail = n_in + g in
          net (if Random.State.bool rand then Random.State.int rand avail
               else max 0 (avail - 1 - Random.State.int rand 24)))
    in
    let op =
      match k with
      | 1 -> if Random.State.bool rand then "NOT" else "BUFF"
      | 2 -> [| "NAND"; "NOR"; "AND"; "OR"; "XOR" |].(Random.State.int rand 5)
      | _ -> [| "NAND"; "AND"; "NOR" |].(Random.State.int rand 3)
    in
    Printf.bprintf buf "g%d = %s(%s)\n" g op (String.concat ", " args)
  done;
  Buffer.contents buf

let load_bench text =
  match Bench_format.parse_string ~library:(Cell.Library.default ()) text with
  | Ok net -> net
  | Error e -> Alcotest.failf "bench: %s" (Format.asprintf "%a" Bench_format.pp_error e)

(* The same circuit through Netlist.Builder, from the records of a
   second load: its flat view comes from the builder's path, not the
   CSR loader's. *)
let builder_copy net =
  let b = Netlist.Builder.create () in
  let pis = Array.init (Netlist.n_pis net) (fun i -> Netlist.Builder.add_pi b (Netlist.pi_name net i)) in
  let gates = Array.make (Netlist.n_gates net) (Netlist.Gate 0) in
  let node = function Netlist.Pi i -> pis.(i) | Netlist.Gate g -> gates.(g) in
  Array.iter
    (fun (g : Netlist.gate) ->
      gates.(g.id) <-
        Netlist.Builder.add_gate b ~name:g.gate_name ~wire_load:g.wire_load ~cell:g.cell
          (Array.to_list (Array.map node g.fanin)))
    (Netlist.gates net);
  Array.iteri (fun i po -> Netlist.Builder.mark_po b ~name:(Netlist.po_name net i) (node po)) (Netlist.pos net);
  Netlist.Builder.build b

(* A .bench-loaded netlist samples Int64-identically to a builder-built
   copy, with and without an arena, independent and correlated, serial
   and pooled. *)
let test_bench_vs_builder () =
  let text = random_bench_text ~n_in:24 ~n_gates:500 11 in
  let loaded = load_bench text in
  let built = builder_copy (load_bench text) in
  let sizes =
    Array.init (Netlist.n_gates loaded) (fun g -> 1. +. (0.25 *. float_of_int (g mod 7)))
  in
  let varmodels = [ Varmodel.independent; Varmodel.make ~grid:2 ~global_frac:0.3 ~grid_frac:0.3 () ] in
  List.iter
    (fun varmodel ->
      List.iter
        (fun (label, pool) ->
          let run ?arena net = Mcsta.sample ?pool ?arena ~varmodel ~model ~seed:9 ~batch:37 net ~sizes ~n:200 in
          let reference = run built in
          check_samples_identical (label ^ " loaded") reference (run loaded);
          check_samples_identical (label ^ " loaded, arena") reference
            (run ~arena:(Sta.Arena.create loaded) loaded))
        [ ("serial", None); ("2 domains", Some pool2) ])
    varmodels

(* The no-arena delay means read the flat columns: on a fresh
   .bench-loaded netlist the first one-trial sample allocates no more
   than the second (the record view is never built). *)
let test_bench_sample_words () =
  let net = load_bench (random_bench_text ~n_in:64 ~n_gates:20_000 5) in
  let sizes = Netlist.min_sizes net in
  let words () =
    (* An empty minor heap: promotions in the window are then of words
       allocated in it. *)
    Gc.minor ();
    let m0, p0, j0 = Gc.counters () in
    ignore (Sys.opaque_identity (Mcsta.sample ~model ~seed:1 net ~sizes ~n:1));
    let m1, p1, j1 = Gc.counters () in
    m1 -. m0 +. (j1 -. j0) -. (p1 -. p0)
  in
  let first = words () in
  let second = words () in
  let per_gate w = w /. float_of_int (Netlist.n_gates net) in
  Printf.printf "sample ~n:1 on %d gates: first %.0f words (%.1f/gate), second %.0f (%.1f/gate)\n"
    (Netlist.n_gates net) first (per_gate first) second (per_gate second);
  (* Identical calls can differ by about 5 words per gate here; building
     the record view costs about 80. *)
  if per_gate first > per_gate second +. 8. then
    Alcotest.failf "first call allocated %.0f words, second %.0f" first second

(* Release only (the dev profile does not inline the generator across
   libraries): a 32-trial chunk with an arena allocates a few minor words
   per gate (each gate's 48-byte stream state), none per draw. *)
let test_chunk_minor_words () =
  if not (Release_profile.kernels_inlined ()) then Alcotest.skip ();
  let net = load_bench (random_bench_text ~n_in:64 ~n_gates:20_000 7) in
  let sizes = Netlist.min_sizes net in
  let arena = Sta.Arena.create net in
  let chunk seed = Mcsta.sample ~arena ~model ~seed net ~sizes ~n:32 in
  ignore (Sys.opaque_identity (chunk 1));
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (chunk 2));
  let per_gate = (Gc.minor_words () -. w0) /. float_of_int (Netlist.n_gates net) in
  Printf.printf "32-trial chunk on %d gates: %.1f minor words/gate\n" (Netlist.n_gates net)
    per_gate;
  if per_gate > 16. then Alcotest.failf "chunk allocates %.1f minor words/gate" per_gate

(* Goldens: Int64 digests of apex2* samples captured from the engine,
   serial and at 2 domains, for each sampling mode.  A rewrite of the
   generator or of the sampling kernel must keep every sample's bits. *)
let digest a =
  Array.fold_left
    (fun h x -> Int64.add (Int64.mul h 0x100000001B3L) (bits x))
    0xCBF29CE484222325L a

let test_golden_digests () =
  let net = Generate.apex2_like () in
  let sizes =
    Array.mapi
      (fun g m -> Float.min m (1. +. (0.25 *. float_of_int (g mod 5))))
      (Netlist.max_sizes net)
  in
  let corr =
    match Varmodel.of_spec "grid=4x4,global=0.25,cell=0.25" with
    | Ok v -> v
    | Error e -> Alcotest.fail e
  in
  let pi_arrival i = 0.5 +. (0.125 *. float_of_int (i mod 3)) in
  let run ?arena ?shape ?pi_arrival ?varmodel pool =
    Mcsta.sample ?pool ?arena ?shape ?pi_arrival ?varmodel ~model ~seed:11 ~batch:64 net
      ~sizes ~n:300
  in
  List.iter
    (fun (name, golden, f) ->
      List.iter
        (fun (label, pool) ->
          let d = digest (f pool) in
          if not (Int64.equal d golden) then
            Alcotest.failf "%s, %s: digest 0x%016Lx, golden 0x%016Lx" name label d golden)
        [ ("serial", None); ("2 domains", Some pool2) ])
    [
      ("independent", 0x8fae0df051b9d119L, fun p -> run p);
      ("independent arena", 0x8fae0df051b9d119L, fun p -> run ~arena:(Sta.Arena.create net) p);
      ("correlated", 0x053174bdf2180277L, fun p -> run ~varmodel:corr p);
      ("gaussian", 0x8fae0df051b9d119L, fun p -> run ~shape:Mcsta.Gaussian p);
      ("uniform", 0xbaecde08676f1900L, fun p -> run ~shape:Mcsta.Uniform p);
      ( "shifted exponential",
        0x7f485c81ea8448e3L,
        fun p -> run ~shape:Mcsta.Shifted_exponential p );
      ("two-point", 0x42dc5ac6fc7cb2a1L, fun p -> run ~shape:Mcsta.Two_point p);
      ( "correlated uniform",
        0x0edc030e4d10d9d8L,
        fun p -> run ~varmodel:corr ~shape:Mcsta.Uniform p );
      ("pi_arrival", 0x89469517741712f9L, fun p -> run ~pi_arrival p);
      ("correlated pi_arrival", 0x3951796e5f374873L, fun p -> run ~varmodel:corr ~pi_arrival p);
    ]

let test_seed_sensitivity () =
  let net = Generate.tree () in
  let sizes = Netlist.min_sizes net in
  let a = Mcsta.sample ~model ~seed:1 net ~sizes ~n:64 in
  let b = Mcsta.sample ~model ~seed:2 net ~sizes ~n:64 in
  Alcotest.(check bool) "different seeds differ" true (a <> b);
  let a' = Mcsta.sample ~model ~seed:1 net ~sizes ~n:64 in
  check_samples_identical "same seed reproduces" a a'

let test_prefix_property () =
  (* Growing n must extend, not reshuffle, the sample stream: sample k of
     gate g depends only on (seed, g, k). *)
  let net = Generate.tree () in
  let sizes = Netlist.min_sizes net in
  let long = Mcsta.sample ~model ~seed:4 ~batch:50 net ~sizes ~n:150 in
  let short = Mcsta.sample ~model ~seed:4 ~batch:50 net ~sizes ~n:60 in
  check_samples_identical "prefix" short (Array.sub long 0 60)

let test_invalid_args () =
  let net = Generate.tree () in
  let sizes = Netlist.min_sizes net in
  Alcotest.check_raises "n = 0" (Invalid_argument "Mcsta.sample: n must be positive")
    (fun () -> ignore (Mcsta.sample ~model net ~sizes ~n:0));
  Alcotest.check_raises "batch = 0"
    (Invalid_argument "Mcsta.sample: batch must be positive") (fun () ->
      ignore (Mcsta.sample ~model ~batch:0 net ~sizes ~n:10))

(* ---- differential: analytic SSTA vs sampled moments ------------------------- *)

(* Error budget for comparing the analytic result with empirical moments:
   sampling noise (Statdelay.Mc.standard_errors at z = 5) plus a bias
   allowance for the two-operand fold, as fraction of sigma. *)
let moment_budget ~sigma ~n ~bias_frac =
  let se_mu, se_sigma = Statdelay.Mc.standard_errors ~sigma ~n in
  ((5. *. se_mu) +. (bias_frac *. sigma), (5. *. se_sigma) +. (bias_frac *. sigma))

let check_moments name net ~n ~bias_frac =
  let sizes = Netlist.min_sizes net in
  let analytic = (Sta.Ssta.analyze ~model net ~sizes).Sta.Ssta.circuit in
  let mu_a = Statdelay.Normal.mu analytic in
  let sigma_a = Statdelay.Normal.sigma analytic in
  let s = Mcsta.summarize (Mcsta.sample ~pool:pool2 ~model ~seed:17 net ~sizes ~n) in
  let tol_mu, tol_sigma = moment_budget ~sigma:sigma_a ~n ~bias_frac in
  if abs_float (s.Mcsta.mu -. mu_a) > tol_mu then
    Alcotest.failf "%s: mu %.4f vs analytic %.4f (tol %.4f)" name s.Mcsta.mu mu_a
      tol_mu;
  if abs_float (s.Mcsta.sigma -. sigma_a) > tol_sigma then
    Alcotest.failf "%s: sigma %.4f vs analytic %.4f (tol %.4f)" name s.Mcsta.sigma
      sigma_a tol_sigma

let test_moments_chain () =
  (* A chain has no max at all: eq. 4 addition is exact, so the only
     error is sampling noise. *)
  check_moments "chain" (Generate.chain ~length:30 ()) ~n:40_000 ~bias_frac:0.005

let test_moments_tree () =
  (* The tree's paths share no gates, so independence holds exactly and
     the residual is the two-operand fold bias (~1-2% of sigma). *)
  check_moments "tree" (Generate.tree ()) ~n:40_000 ~bias_frac:0.02

let test_reconvergent_directional () =
  (* Under reconvergent fanout the paper's independence assumption makes
     the analytic engine overestimate mu and underestimate sigma (its
     declared future work); the oracle must sit on the proper side. *)
  List.iter
    (fun (name, net) ->
      let sizes = Netlist.min_sizes net in
      let analytic = (Sta.Ssta.analyze ~model net ~sizes).Sta.Ssta.circuit in
      let mu_a = Statdelay.Normal.mu analytic in
      let sigma_a = Statdelay.Normal.sigma analytic in
      let s = Mcsta.summarize (Mcsta.sample ~pool:pool2 ~model ~seed:23 net ~sizes ~n:20_000) in
      let se_mu, _ = Statdelay.Mc.standard_errors ~sigma:s.Mcsta.sigma ~n:s.Mcsta.n in
      if s.Mcsta.mu > mu_a +. (5. *. se_mu) then
        Alcotest.failf "%s: sampled mu %.4f above analytic %.4f" name s.Mcsta.mu mu_a;
      if s.Mcsta.sigma < 0.9 *. sigma_a then
        Alcotest.failf "%s: sampled sigma %.4f below 0.9x analytic %.4f" name
          s.Mcsta.sigma sigma_a;
      (* and the gap stays bounded: the approximation is usable. *)
      if abs_float (s.Mcsta.mu -. mu_a) > 0.10 *. mu_a then
        Alcotest.failf "%s: mu gap exceeds 10%%" name)
    [
      ("apex2*", Generate.apex2_like ());
      ("dag42", wide_dag ~n_gates:300 42);
      ("dag43", wide_dag ~n_gates:300 43);
    ]

(* ---- the deterministic limit ------------------------------------------------ *)

let test_sigma_zero_collapses_to_dsta () =
  List.iter
    (fun (name, net) ->
      let sizes = Netlist.min_sizes net in
      let d = Sta.Dsta.analyze net ~sizes in
      (* Ssta with the Zero model is Dsta gate by gate. *)
      let s = Sta.Ssta.analyze ~model:Sigma_model.Zero net ~sizes in
      Array.iteri
        (fun g (a : Statdelay.Normal.t) ->
          Alcotest.(check (float 1e-9))
            (Printf.sprintf "%s: gate %d mu" name g)
            d.Sta.Dsta.arrival.(g) a.Statdelay.Normal.mu;
          Alcotest.(check (float 0.)) "var" 0. a.Statdelay.Normal.var)
        s.Sta.Ssta.arrival;
      (* Mcsta with the Zero model: every sample IS the deterministic
         delay, bit for bit (mu +. 0. *. z leaves mu untouched). *)
      let mc = Mcsta.sample ~model:Sigma_model.Zero ~seed:12 net ~sizes ~n:16 in
      Array.iteri
        (fun i t ->
          if not (Int64.equal (bits t) (bits d.Sta.Dsta.circuit)) then
            Alcotest.failf "%s: sample %d = %h <> dsta %h" name i t
              d.Sta.Dsta.circuit)
        mc)
    [ ("tree", Generate.tree ()); ("dag44", wide_dag ~n_gates:200 44) ]

let test_sigma_limit_continuity () =
  (* Proportional r -> 0 approaches the deterministic answer smoothly. *)
  let net = Generate.tree () in
  let sizes = Netlist.min_sizes net in
  let d = (Sta.Dsta.analyze net ~sizes).Sta.Dsta.circuit in
  let mu_at r =
    Statdelay.Normal.mu
      (Sta.Ssta.analyze ~model:(Sigma_model.Proportional r) net ~sizes).Sta.Ssta.circuit
  in
  Alcotest.(check (float 1e-6)) "r = 1e-9" d (mu_at 1e-9);
  let err r = abs_float (mu_at r -. d) in
  Alcotest.(check bool) "monotone approach" true (err 1e-3 < err 1e-2 && err 1e-2 < err 1e-1)

(* ---- pi_arrival and shape hooks --------------------------------------------- *)

let test_pi_arrival_shift () =
  let net = Generate.tree () in
  let sizes = Netlist.min_sizes net in
  let base = Mcsta.sample ~model ~seed:6 net ~sizes ~n:256 in
  let shifted =
    Mcsta.sample ~model ~seed:6 ~pi_arrival:(fun _ -> 2.5) net ~sizes ~n:256
  in
  Array.iteri
    (fun i t ->
      Alcotest.(check (float 1e-9)) (Printf.sprintf "sample %d" i) (t +. 2.5)
        shifted.(i))
    base

let test_draw_hook_two_point () =
  (* With the two-point family every gate delay is mu +/- sigma, so on a
     single-path chain each sample is a sum of n such terms: bounded by
     the all-plus / all-minus extremes, and matching the model moments. *)
  let net = Generate.chain ~length:10 () in
  let sizes = Netlist.min_sizes net in
  let mu_t = Sta.Dsta.delays net ~sizes in
  let hi =
    Array.fold_left (fun acc mu -> acc +. mu +. Sigma_model.sigma model mu) 0. mu_t
  in
  let lo =
    Array.fold_left (fun acc mu -> acc +. mu -. Sigma_model.sigma model mu) 0. mu_t
  in
  let samples = Mcsta.sample ~model ~seed:8 ~shape:Mcsta.Two_point net ~sizes ~n:4096 in
  Array.iter
    (fun t ->
      if t < lo -. 1e-9 || t > hi +. 1e-9 then
        Alcotest.failf "two-point sample %.4f outside [%.4f, %.4f]" t lo hi)
    samples;
  let s = Mcsta.summarize samples in
  let analytic = (Sta.Ssta.analyze ~model net ~sizes).Sta.Ssta.circuit in
  let tol_mu, tol_sigma =
    moment_budget ~sigma:(Statdelay.Normal.sigma analytic) ~n:4096 ~bias_frac:0.01
  in
  Alcotest.(check (float tol_mu)) "two-point mu" (Statdelay.Normal.mu analytic) s.Mcsta.mu;
  Alcotest.(check (float tol_sigma)) "two-point sigma"
    (Statdelay.Normal.sigma analytic) s.Mcsta.sigma

(* ---- reductions ------------------------------------------------------------- *)

let test_summarize_and_conformance () =
  let samples = Array.init 1000 (fun i -> float_of_int i) in
  let s = Mcsta.summarize ~quantiles:[ 0.; 0.5; 1. ] samples in
  Alcotest.(check int) "n" 1000 s.Mcsta.n;
  Alcotest.(check (float 1e-9)) "mu" 499.5 s.Mcsta.mu;
  Alcotest.(check (float 1e-9)) "min" 0. s.Mcsta.min_t;
  Alcotest.(check (float 1e-9)) "max" 999. s.Mcsta.max_t;
  (match s.Mcsta.quantiles with
  | [ (_, q0); (_, q50); (_, q100) ] ->
      Alcotest.(check (float 1e-9)) "q0" 0. q0;
      Alcotest.(check (float 1e-9)) "q50" 499.5 q50;
      Alcotest.(check (float 1e-9)) "q100" 999. q100
  | _ -> Alcotest.fail "expected three quantiles");
  let c = Mcsta.conformance samples ~budget:249. in
  Alcotest.(check int) "hits" 250 c.Mcsta.hits;
  Alcotest.(check (float 1e-9)) "p" 0.25 c.Mcsta.p;
  Alcotest.(check bool) "ci ordered" true
    (0. <= c.Mcsta.ci_lo && c.Mcsta.ci_lo <= c.Mcsta.p
    && c.Mcsta.p <= c.Mcsta.ci_hi && c.Mcsta.ci_hi <= 1.);
  (* Wilson never collapses to a point at the extremes. *)
  let none = Mcsta.conformance samples ~budget:(-1.) in
  Alcotest.(check int) "no hits" 0 none.Mcsta.hits;
  Alcotest.(check bool) "ci_hi > 0 at p = 0" true (none.Mcsta.ci_hi > 0.)

(* ---- the Section-4 conformance claim ---------------------------------------- *)

let test_conformance_claim_sized_tree () =
  let net = Generate.tree () in
  let unsized, _ =
    Sizing.Engine.evaluate ~model net ~sizes:(Netlist.min_sizes net)
  in
  (* 92% of the unsized mean: loose enough that all three guard-band
     constraints bind (at 85% the k=3 sizing saturates; see
     EXPERIMENTS.md), tight enough to be a real constraint. *)
  let deadline = 0.92 *. Statdelay.Normal.mu unsized.Sta.Ssta.circuit in
  let n = 20_000 in
  List.iter
    (fun (k, bias_allowance) ->
      let predicted = Util.Special.normal_cdf k in
      let sol =
        Sizing.Engine.solve ~model net
          (Sizing.Objective.Min_area_bounded { k; bound = deadline })
      in
      Alcotest.(check bool)
        (Printf.sprintf "k=%g converged" k)
        true sol.Sizing.Engine.converged;
      (* the constraint must actually bind, or Phi(k) is the wrong target *)
      Alcotest.(check (float 5e-3))
        (Printf.sprintf "k=%g constraint active" k)
        deadline
        (sol.Sizing.Engine.mu +. (k *. sol.Sizing.Engine.sigma));
      let samples =
        Mcsta.sample ~pool:pool_big ~model ~seed:9 net
          ~sizes:sol.Sizing.Engine.sizes ~n
      in
      let c = Mcsta.conformance samples ~budget:deadline in
      (* (a) the estimate sits within binomial noise + model bias of the
         prediction.  The bias allowance covers what the normal model
         cannot: the sampled max is right-skewed (median < mean, so k=0
         reads ~0.5% high) and the folded sigma is ~0.5% low. *)
      let se = sqrt (predicted *. (1. -. predicted) /. float_of_int n) in
      let dev = abs_float (c.Mcsta.p -. predicted) in
      if dev > (3. *. se) +. bias_allowance then
        Alcotest.failf "k=%g: MC %.4f vs predicted %.4f (tol %.4f)" k c.Mcsta.p
          predicted
          ((3. *. se) +. bias_allowance);
      (* (b) the paper's rounded claim lies inside the reported CI. *)
      let claim = match k with 0. -> 0.5 | 1. -> 0.841 | _ -> 0.998 in
      if claim < c.Mcsta.ci_lo -. bias_allowance
         || claim > c.Mcsta.ci_hi +. bias_allowance
      then
        Alcotest.failf "k=%g: paper claim %.3f outside CI [%.4f, %.4f]" k claim
          c.Mcsta.ci_lo c.Mcsta.ci_hi)
    [ (0., 0.008); (1., 0.005); (3., 0.0015) ]

let () =
  let open Alcotest in
  run "mc"
    [
      ( "determinism",
        [
          test_case "batch invariance" `Quick test_batch_invariance;
          test_case "pool invariance" `Quick test_pool_invariance;
          test_case "seed sensitivity" `Quick test_seed_sensitivity;
          test_case "prefix property" `Quick test_prefix_property;
          test_case "invalid args" `Quick test_invalid_args;
          test_case ".bench-loaded vs builder-built" `Quick test_bench_vs_builder;
          test_case ".bench first sample allocates no more" `Quick
            test_bench_sample_words;
          test_case "golden digests" `Quick test_golden_digests;
          test_case "chunk minor words" `Quick test_chunk_minor_words;
        ] );
      ( "differential",
        [
          test_case "chain moments" `Quick test_moments_chain;
          test_case "tree moments" `Quick test_moments_tree;
          test_case "reconvergent directional" `Quick test_reconvergent_directional;
        ] );
      ( "deterministic limit",
        [
          test_case "sigma = 0 collapses to Dsta" `Quick
            test_sigma_zero_collapses_to_dsta;
          test_case "sigma -> 0 continuity" `Quick test_sigma_limit_continuity;
        ] );
      ( "hooks",
        [
          test_case "pi_arrival shift" `Quick test_pi_arrival_shift;
          test_case "two-point draw" `Quick test_draw_hook_two_point;
        ] );
      ( "reductions",
        [ test_case "summarize/conformance" `Quick test_summarize_and_conformance ] );
      ( "claim",
        [ test_case "50/84.1/99.8 on the sized tree" `Slow test_conformance_claim_sized_tree ] );
    ]
