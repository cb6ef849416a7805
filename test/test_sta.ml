(* Tests for deterministic and statistical STA, the adjoint gradient, and
   yield estimation. *)

open Circuit
open Statdelay

let check_float ?(eps = 1e-12) msg expected actual =
  Alcotest.check (Alcotest.float eps) msg expected actual

let model = Sigma_model.paper_default

(* ---- Deterministic STA ------------------------------------------------------ *)

let test_dsta_chain_by_hand () =
  (* Chain of 3 identical inverters, all sizes 1: arrival accumulates the
     per-stage delay; the last stage sees only its wire load. *)
  let cell = Cell.make ~name:"inv" ~n_inputs:1 ~t_int:0.2 ~drive:1. ~c_in:0.3 () in
  let n = Generate.chain ~length:3 ~cell ~wire_load:0.5 () in
  let sizes = Netlist.min_sizes n in
  let r = Sta.Dsta.analyze n ~sizes in
  (* stages 0,1 drive an inv (0.3): delay = 0.2 + (0.5 + 0.3) = 1.0;
     stage 2 drives nothing: delay = 0.2 + 0.5 = 0.7 *)
  check_float "stage delay" 1.0 r.Sta.Dsta.gate_delay.(0);
  check_float "last stage" 0.7 r.Sta.Dsta.gate_delay.(2);
  check_float "arrival 0" 1.0 r.Sta.Dsta.arrival.(0);
  check_float "arrival 2 / circuit" 2.7 r.Sta.Dsta.circuit

let test_dsta_sizing_speeds_up () =
  let n = Generate.tree () in
  let slow = (Sta.Dsta.analyze n ~sizes:(Netlist.min_sizes n)).Sta.Dsta.circuit in
  let fast = (Sta.Dsta.analyze n ~sizes:(Netlist.max_sizes n)).Sta.Dsta.circuit in
  Alcotest.(check bool) "max sizes faster" true (fast < slow)

let test_dsta_external_delays () =
  let n = Generate.chain ~length:2 () in
  let r = Sta.Dsta.analyze_with_delays n ~gate_delay:[| 1.; 2. |] in
  check_float "arrival" 3. r.Sta.Dsta.circuit

let test_dsta_pi_arrival () =
  let n = Generate.chain ~length:2 () in
  let base = Sta.Dsta.analyze n ~sizes:(Netlist.min_sizes n) in
  let shifted =
    Sta.Dsta.analyze ~pi_arrival:(fun _ -> 1.5) n ~sizes:(Netlist.min_sizes n)
  in
  check_float ~eps:1e-12 "shifts through" (base.Sta.Dsta.circuit +. 1.5)
    shifted.Sta.Dsta.circuit

let test_dsta_required_and_slack () =
  let n = Generate.chain ~length:3 () in
  let sizes = Netlist.min_sizes n in
  let r = Sta.Dsta.analyze n ~sizes in
  let deadline = r.Sta.Dsta.circuit in
  let slack = Sta.Dsta.slack n ~sizes ~deadline in
  (* Single path: slack is zero everywhere at a tight deadline. *)
  Array.iteri (fun i s -> check_float ~eps:1e-9 (Printf.sprintf "slack %d" i) 0. s) slack;
  let loose = Sta.Dsta.slack n ~sizes ~deadline:(deadline +. 1.) in
  Array.iter (fun s -> check_float ~eps:1e-9 "loose slack" 1. s) loose

let test_dsta_critical_path_chain () =
  let n = Generate.chain ~length:4 () in
  let p = Sta.Dsta.critical_path n ~sizes:(Netlist.min_sizes n) in
  Alcotest.(check (list int)) "whole chain" [ 0; 1; 2; 3 ] p

let test_dsta_critical_path_unbalanced () =
  (* Two parallel branches of different lengths into one gate: the critical
     path goes through the longer branch. *)
  let inv = Cell.make ~name:"inv" ~n_inputs:1 ~c_in:0.2 () in
  let nand2 = Cell.nand 2 in
  let b = Netlist.Builder.create () in
  let a = Netlist.Builder.add_pi b "a" in
  let g0 = Netlist.Builder.add_gate b ~cell:inv [ a ] in
  let g1 = Netlist.Builder.add_gate b ~cell:inv [ g0 ] in
  (* long branch: g0 -> g1 ; short branch: direct PI *)
  let g2 = Netlist.Builder.add_gate b ~cell:nand2 [ g1; a ] in
  Netlist.Builder.mark_po b g2;
  let n = Netlist.Builder.build b in
  let p = Sta.Dsta.critical_path n ~sizes:(Netlist.min_sizes n) in
  Alcotest.(check (list int)) "long branch" [ 0; 1; 2 ] p

(* The record walk the deterministic sweeps are checked against: gates
   in id order over [Netlist.gates], fanins folded with [max] in
   [gate.fanin] order; required times pushed to the fanins in
   decreasing id. *)
let record_arrivals ~pi_arrival net ~gate_delay =
  let arrival = Array.make (Netlist.n_gates net) 0. in
  let node = function Netlist.Pi i -> pi_arrival i | Netlist.Gate g -> arrival.(g) in
  Array.iter
    (fun (g : Netlist.gate) ->
      let u =
        Array.fold_left (fun acc f -> max acc (node f)) neg_infinity g.Netlist.fanin
      in
      arrival.(g.Netlist.id) <- u +. gate_delay.(g.Netlist.id))
    (Netlist.gates net);
  (arrival, Array.fold_left (fun acc po -> max acc (node po)) neg_infinity (Netlist.pos net))

let record_required net ~gate_delay ~deadline =
  let req = Array.make (Netlist.n_gates net) infinity in
  Array.iter
    (function Netlist.Gate g -> req.(g) <- min req.(g) deadline | Netlist.Pi _ -> ())
    (Netlist.pos net);
  for g = Netlist.n_gates net - 1 downto 0 do
    let own_start = req.(g) -. gate_delay.(g) in
    Array.iter
      (function
        | Netlist.Gate src -> req.(src) <- min req.(src) own_start | Netlist.Pi _ -> ())
      (Netlist.gate net g).Netlist.fanin
  done;
  req

(* Minor words from [Gc.minor_words]: [Gc.counters]' minor count leaves
   out the words still in the minor heap. *)
let allocated_words f =
  let m0 = Gc.minor_words () and _, p0, j0 = Gc.counters () in
  let r = f () in
  let m1 = Gc.minor_words () and _, p1, j1 = Gc.counters () in
  (r, m1 -. m0 +. (j1 -. j0) -. (p1 -. p0))

(* A seeded .bench text of [n] two-input gates over 40 inputs: each gate
   reads two random earlier nets, so depths are mixed and inputs enter
   at every level; the last 40 gates are outputs. *)
let mixed_bench_text n =
  let rng = Util.Rng.create 23 in
  let pis = 40 in
  let buf = Buffer.create (32 * n) in
  for i = 0 to pis - 1 do
    Printf.bprintf buf "INPUT(i%d)\n" i
  done;
  for g = n - 40 to n - 1 do
    Printf.bprintf buf "OUTPUT(g%d)\n" g
  done;
  let name k = if k < pis then Printf.sprintf "i%d" k else Printf.sprintf "g%d" (k - pis) in
  for g = 0 to n - 1 do
    let a = name (Util.Rng.int rng (pis + g)) in
    let b = name (Util.Rng.int rng (pis + g)) in
    Printf.bprintf buf "g%d = NAND(%s, %s)\n" g a b
  done;
  Buffer.contents buf

let bits = Int64.bits_of_float

let check_bits msg (expected : float array) (actual : float array) =
  Alcotest.(check int) (msg ^ ": length") (Array.length expected) (Array.length actual);
  Array.iteri
    (fun i x ->
      if not (Int64.equal (bits x) (bits actual.(i))) then
        Alcotest.failf "%s: slot %d: %h <> %h" msg i x actual.(i))
    expected

(* Dsta's arrival and required-time sweeps read the flat fanin columns:
   on a .bench load they build no record view and allocate nothing per
   gate, and they match the record walk bit for bit — on the loaded
   netlist and on a generated one whose ids are not level-major. *)
let test_dsta_flat_walk () =
  let n_gates = 5_000 in
  let net =
    match
      Bench_format.parse_string ~library:(Cell.Library.default ())
        (mixed_bench_text n_gates)
    with
    | Ok n -> n
    | Error e -> Alcotest.failf "%s" (Format.asprintf "%a" Bench_format.pp_error e)
  in
  Alcotest.(check int) "gates" n_gates (Netlist.n_gates net);
  let gate_delay = Sta.Dsta.delays net ~sizes:(Netlist.min_sizes net) in
  let arrival = Array.make n_gates nan in
  (* Measured with the default input arrivals: a caller's [pi_arrival]
     closure boxes the float it returns. *)
  let _, w_arr =
    allocated_words (fun () -> Sta.Dsta.propagate_into net ~gate_delay ~arrival)
  in
  if w_arr > 64. then
    Alcotest.failf "propagate_into allocated %.0f words on %d gates" w_arr n_gates;
  let pi_arrival i = 0.05 *. float_of_int (i mod 7) in
  let circuit = Sta.Dsta.propagate_into ~pi_arrival net ~gate_delay ~arrival in
  let deadline = circuit +. 0.5 in
  let req, w_req =
    allocated_words (fun () -> Sta.Dsta.required net ~gate_delay ~deadline)
  in
  if w_req > float_of_int n_gates +. 64. then
    Alcotest.failf "required allocated %.0f words for a %d-float vector" w_req n_gates;
  let check name net ~pi_arrival ~gate_delay ~arrival ~circuit ~req =
    let arr_ref, circuit_ref = record_arrivals ~pi_arrival net ~gate_delay in
    check_bits (name ^ ": arrivals") arr_ref arrival;
    check_bits (name ^ ": circuit delay") [| circuit_ref |] [| circuit |];
    check_bits (name ^ ": required") (record_required net ~gate_delay ~deadline) req
  in
  check "bench" net ~pi_arrival ~gate_delay ~arrival ~circuit ~req;
  let dag = Generate.apex1_like () in
  let gate_delay = Sta.Dsta.delays dag ~sizes:(Netlist.max_sizes dag) in
  let r = Sta.Dsta.analyze_with_delays ~pi_arrival dag ~gate_delay in
  check "apex1*" dag ~pi_arrival ~gate_delay ~arrival:r.Sta.Dsta.arrival
    ~circuit:r.Sta.Dsta.circuit
    ~req:(Sta.Dsta.required dag ~gate_delay ~deadline)

(* The record walk [Dsta.critical_path] used to make: the first PO gate
   with the latest arrival, then back through the first gate fanin
   whose arrival is within 1e-9 of the gate's start time. *)
let record_critical_path net ~sizes =
  let r = Sta.Dsta.analyze net ~sizes in
  let arrival = r.Sta.Dsta.arrival and gate_delay = r.Sta.Dsta.gate_delay in
  let last =
    Array.fold_left
      (fun acc po ->
        match (acc, po) with
        | None, Netlist.Gate g -> Some g
        | Some best, Netlist.Gate g -> if arrival.(g) > arrival.(best) then Some g else acc
        | _, Netlist.Pi _ -> acc)
      None (Netlist.pos net)
  in
  let rec walk acc g =
    let u = arrival.(g) -. gate_delay.(g) in
    let pred =
      Array.fold_left
        (fun acc fan ->
          match fan with
          | Netlist.Gate src when acc = None && abs_float (arrival.(src) -. u) < 1e-9 ->
              Some src
          | Netlist.Gate _ | Netlist.Pi _ -> acc)
        None (Netlist.gate net g).Netlist.fanin
    in
    match pred with None -> g :: acc | Some src -> walk (g :: acc) src
  in
  match last with None -> [] | Some g -> walk [] g

let load_bench text =
  match Bench_format.parse_string ~library:(Cell.Library.default ()) text with
  | Ok n -> n
  | Error e -> Alcotest.failf "%s" (Format.asprintf "%a" Bench_format.pp_error e)

let digest a =
  Array.fold_left
    (fun h x -> Int64.add (Int64.mul h 0x100000001B3L) (bits x))
    0xCBF29CE484222325L a

(* The critical path reads the flat columns: on a fresh .bench load the
   first call allocates no more than the second (the record view is
   never built), and the path is the record walk's.  The greedy
   baseline, which walks it every move, sizes Int64-identically to the
   goldens captured from the record walk. *)
let test_dsta_critical_path_bench () =
  let net = load_bench (mixed_bench_text 5_000) in
  let n = float_of_int (Netlist.n_gates net) in
  let sizes =
    Array.mapi
      (fun g m -> Float.min m (1. +. (0.5 *. float_of_int (g mod 4))))
      (Netlist.max_sizes net)
  in
  let first, w_first = allocated_words (fun () -> Sta.Dsta.critical_path net ~sizes) in
  let second, w_second = allocated_words (fun () -> Sta.Dsta.critical_path net ~sizes) in
  (* Identical calls differ by a few words per gate at most; building
     the record view costs about 60. *)
  if w_first /. n > (w_second /. n) +. 8. then
    Alcotest.failf "first call allocated %.0f words, second %.0f" w_first w_second;
  Alcotest.(check (list int)) "repeat" first second;
  Alcotest.(check (list int)) "record walk" (record_critical_path net ~sizes) first;
  let dag = Generate.apex1_like () in
  let sizes = Netlist.max_sizes dag in
  Alcotest.(check (list int)) "apex1* record walk" (record_critical_path dag ~sizes)
    (Sta.Dsta.critical_path dag ~sizes);
  let net = load_bench (mixed_bench_text 300) in
  let check_sizes name golden (r : Sizing.Baseline.result) =
    let d = digest r.Sizing.Baseline.sizes in
    if not (Int64.equal d golden) then
      Alcotest.failf "%s: sizes digest 0x%016Lx, golden 0x%016Lx" name d golden
  in
  let r = Sizing.Baseline.minimize_delay net in
  check_sizes "minimize_delay" 0x091f9a1cceda158bL r;
  Alcotest.(check int) "minimize_delay moves" 295 r.Sizing.Baseline.moves;
  let deadline = 0.8 *. (Sta.Dsta.analyze net ~sizes:(Netlist.min_sizes net)).Sta.Dsta.circuit in
  let r = Sizing.Baseline.meet_deadline net ~deadline in
  check_sizes "meet_deadline" 0xe3abc57515154debL r;
  Alcotest.(check int) "meet_deadline moves" 25 r.Sizing.Baseline.moves

(* ---- Statistical STA --------------------------------------------------------- *)

let test_ssta_chain_no_max () =
  (* A chain has no max operations: mean adds, variance adds. *)
  let n = Generate.chain ~length:3 () in
  let sizes = Netlist.min_sizes n in
  let r = Sta.Ssta.analyze ~model n ~sizes in
  let expected_mu = ref 0. and expected_var = ref 0. in
  Array.iter
    (fun (d : Normal.t) ->
      expected_mu := !expected_mu +. Normal.mu d;
      expected_var := !expected_var +. Normal.var d)
    r.Sta.Ssta.gate_delay;
  check_float ~eps:1e-12 "mu adds" !expected_mu (Normal.mu r.Sta.Ssta.circuit);
  check_float ~eps:1e-12 "var adds" !expected_var (Normal.var r.Sta.Ssta.circuit)

let test_ssta_sigma_model_applied () =
  let n = Generate.chain ~length:1 () in
  let sizes = Netlist.min_sizes n in
  let r = Sta.Ssta.analyze ~model n ~sizes in
  let d = r.Sta.Ssta.gate_delay.(0) in
  check_float ~eps:1e-12 "sigma = 0.25 mu" (0.25 *. Normal.mu d) (Normal.sigma d)

let test_ssta_zero_model_matches_dsta () =
  let n = Generate.tree () in
  let sizes = Array.make (Netlist.n_gates n) 2. in
  let s = Sta.Ssta.analyze ~model:Sigma_model.Zero n ~sizes in
  let d = Sta.Dsta.analyze n ~sizes in
  check_float ~eps:1e-9 "circuit mean = deterministic" d.Sta.Dsta.circuit
    (Normal.mu s.Sta.Ssta.circuit);
  check_float "zero variance" 0. (Normal.var s.Sta.Ssta.circuit)

let test_ssta_mu_above_dsta () =
  (* With uncertainty, the statistical mean exceeds the deterministic delay
     (max of distributions shifts up). *)
  let n = Generate.tree () in
  let sizes = Netlist.min_sizes n in
  let s = Sta.Ssta.analyze ~model n ~sizes in
  let d = Sta.Dsta.analyze n ~sizes in
  Alcotest.(check bool) "mu >= deterministic" true
    (Normal.mu s.Sta.Ssta.circuit >= d.Sta.Dsta.circuit -. 1e-12)

let test_ssta_balanced_tree_sigma_shrinks () =
  (* The paper's observation: maxing similar balanced arrivals gives a
     slightly higher mean but a considerably smaller relative sigma than a
     single path. *)
  let n = Generate.tree () in
  let sizes = Netlist.min_sizes n in
  let r = Sta.Ssta.analyze ~model n ~sizes in
  let circuit = r.Sta.Ssta.circuit in
  (* Path A -> C -> G: sum the three gate delays. *)
  let path = List.fold_left
      (fun acc g -> Normal.add acc r.Sta.Ssta.gate_delay.(g))
      (Normal.deterministic 0.) [ 0; 2; 6 ] in
  Alcotest.(check bool) "mu circuit > mu path" true
    (Normal.mu circuit > Normal.mu path);
  Alcotest.(check bool) "sigma circuit < sigma path" true
    (Normal.sigma circuit < Normal.sigma path)

let test_ssta_vs_monte_carlo_tree () =
  let n = Generate.tree () in
  let sizes = Netlist.min_sizes n in
  let r = Sta.Ssta.analyze ~model n ~sizes in
  let samples =
    Sta.Yield.sample_circuit_delays ~rng:(Util.Rng.create 5) ~model n ~sizes ~n:50_000
  in
  let st = Util.Stats.of_array samples in
  Alcotest.(check bool) "mu close" true
    (abs_float (Normal.mu r.Sta.Ssta.circuit -. Util.Stats.mean st) < 0.03);
  Alcotest.(check bool) "sigma close" true
    (abs_float (Normal.sigma r.Sta.Ssta.circuit -. Util.Stats.std_dev st) < 0.03)

let test_ssta_exact_nary_mode () =
  (* On a circuit of 2-input gates every max is already exact, so the
     exact-n-ary analysis agrees with the fold to quadrature accuracy. *)
  let net = Generate.tree () in
  let sizes = Netlist.min_sizes net in
  let folded = Sta.Ssta.analyze ~model net ~sizes in
  let exact = Sta.Ssta.analyze_exact_nary ~model net ~sizes in
  check_float ~eps:1e-6 "mu" (Normal.mu folded.Sta.Ssta.circuit)
    (Normal.mu exact.Sta.Ssta.circuit);
  check_float ~eps:1e-6 "sigma" (Normal.sigma folded.Sta.Ssta.circuit)
    (Normal.sigma exact.Sta.Ssta.circuit);
  (* With 3+ input gates the two differ, but only slightly. *)
  let fig2 = Generate.example_fig2 () in
  let sz = Array.make (Netlist.n_gates fig2) 2. in
  let f = Sta.Ssta.analyze ~model fig2 ~sizes:sz in
  let e = Sta.Ssta.analyze_exact_nary ~model fig2 ~sizes:sz in
  Alcotest.(check bool) "small fold error" true
    (abs_float (Normal.mu f.Sta.Ssta.circuit -. Normal.mu e.Sta.Ssta.circuit) < 0.01)

let test_ssta_pi_arrival_distribution () =
  (* Uncertain primary-input arrivals propagate. *)
  let n = Generate.chain ~length:2 () in
  let sizes = Netlist.min_sizes n in
  let base = Sta.Ssta.analyze ~model n ~sizes in
  let r =
    Sta.Ssta.analyze ~pi_arrival:(fun _ -> Normal.make ~mu:1. ~sigma:0.5) ~model n ~sizes
  in
  check_float ~eps:1e-12 "mean shifted" (Normal.mu base.Sta.Ssta.circuit +. 1.)
    (Normal.mu r.Sta.Ssta.circuit);
  check_float ~eps:1e-12 "variance added" (Normal.var base.Sta.Ssta.circuit +. 0.25)
    (Normal.var r.Sta.Ssta.circuit)

(* ---- Adjoint gradients --------------------------------------------------------- *)

let fd_check ?(rtol = 1e-4) ?(atol = 1e-7) net sizes k =
  let f s =
    let r = Sta.Ssta.analyze ~model net ~sizes:s in
    Normal.mu r.Sta.Ssta.circuit +. (k *. Normal.sigma r.Sta.Ssta.circuit)
  in
  let grad =
    Sta.Ssta.gradient ~model net ~sizes ~seed:(Sta.Ssta.mu_plus_k_sigma_seed k)
  in
  let fd = Util.Numerics.fd_gradient ~h:1e-6 f sizes in
  Array.iteri
    (fun i a ->
      if not (Util.Numerics.approx_eq ~rtol ~atol a fd.(i)) then
        Alcotest.failf "gate %d (k=%g): adjoint %.8f vs fd %.8f" i k a fd.(i))
    grad

let interior_sizes net rng =
  Array.init (Netlist.n_gates net) (fun _ -> Util.Rng.uniform rng ~lo:1.2 ~hi:2.8)

let test_gradient_fd_tree () =
  let net = Generate.tree () in
  let rng = Util.Rng.create 42 in
  List.iter (fun k -> fd_check net (interior_sizes net rng) k) [ 0.; 1.; 3. ]

let test_gradient_fd_fig2 () =
  let net = Generate.example_fig2 () in
  let rng = Util.Rng.create 43 in
  List.iter (fun k -> fd_check net (interior_sizes net rng) k) [ 0.; 3. ]

let test_gradient_fd_chain () =
  let net = Generate.chain ~length:6 () in
  let rng = Util.Rng.create 44 in
  fd_check net (interior_sizes net rng) 1.

let test_gradient_fd_random_dag () =
  let net = Generate.random_dag { Generate.default_spec with Generate.n_gates = 40; seed = 12 } in
  let rng = Util.Rng.create 45 in
  fd_check net (interior_sizes net rng) 3.

let test_gradient_fd_multi_po () =
  (* Circuit with several POs exercises the PO-fold backprop. *)
  let net = Generate.random_dag { Generate.default_spec with Generate.n_gates = 30; seed = 77 } in
  Alcotest.(check bool) "has multiple pos" true (Netlist.n_pos net > 1);
  let rng = Util.Rng.create 46 in
  fd_check net (interior_sizes net rng) 1.

let test_gradient_sigma_seed_fd () =
  let net = Generate.tree () in
  let rng = Util.Rng.create 47 in
  let sizes = interior_sizes net rng in
  let f s =
    let r = Sta.Ssta.analyze ~model net ~sizes:s in
    Normal.sigma r.Sta.Ssta.circuit
  in
  let grad = Sta.Ssta.gradient ~model net ~sizes ~seed:Sta.Ssta.sigma_seed in
  let fd = Util.Numerics.fd_gradient ~h:1e-6 f sizes in
  Array.iteri
    (fun i a ->
      if not (Util.Numerics.approx_eq ~rtol:1e-4 ~atol:1e-7 a fd.(i)) then
        Alcotest.failf "sigma grad gate %d: %.8f vs %.8f" i a fd.(i))
    grad

let test_gradient_min_delay_negative_at_min_sizes () =
  (* At all-minimum sizes, upsizing any gate on the critical cone should
     not increase the mean delay: gradient entries are <= small tolerance
     everywhere for a fanout-free tree. *)
  let net = Generate.tree () in
  let sizes = Netlist.min_sizes net in
  let grad =
    Sta.Ssta.gradient ~model net ~sizes ~seed:(Sta.Ssta.mu_plus_k_sigma_seed 0.)
  in
  Array.iteri
    (fun i g ->
      if g > 1e-9 then Alcotest.failf "gate %d has positive gradient %.6f" i g)
    grad

let test_value_and_gradient_consistent () =
  let net = Generate.tree () in
  let sizes = Array.make (Netlist.n_gates net) 2. in
  let res, grad =
    Sta.Ssta.value_and_gradient ~model net ~sizes ~seed:(Sta.Ssta.mu_plus_k_sigma_seed 0.)
  in
  let res2 = Sta.Ssta.analyze ~model net ~sizes in
  check_float ~eps:1e-15 "same mu" (Normal.mu res2.Sta.Ssta.circuit)
    (Normal.mu res.Sta.Ssta.circuit);
  let grad2 =
    Sta.Ssta.gradient ~model net ~sizes ~seed:(Sta.Ssta.mu_plus_k_sigma_seed 0.)
  in
  Alcotest.(check (array (float 1e-15))) "same gradient" grad2 grad

(* ---- Yield ------------------------------------------------------------------------ *)

let test_yield_analytic () =
  let c = Normal.make ~mu:10. ~sigma:1. in
  check_float ~eps:1e-12 "at mean" 0.5 (Sta.Yield.analytic c ~deadline:10.);
  check_float ~eps:1e-9 "at +1 sigma" 0.841344746068543 (Sta.Yield.analytic c ~deadline:11.);
  check_float ~eps:1e-9 "at +3 sigma" 0.998650101968370 (Sta.Yield.analytic c ~deadline:13.)

let test_yield_monte_carlo_matches_analytic_tree () =
  let net = Generate.tree () in
  let sizes = Netlist.min_sizes net in
  let r = Sta.Ssta.analyze ~model net ~sizes in
  let deadline = Normal.mu r.Sta.Ssta.circuit +. Normal.sigma r.Sta.Ssta.circuit in
  let mc =
    Sta.Yield.monte_carlo ~rng:(Util.Rng.create 8) ~model net ~sizes ~deadline ~n:40_000
  in
  let analytic = Sta.Yield.analytic r.Sta.Ssta.circuit ~deadline in
  Alcotest.(check bool) "within 2%" true (abs_float (mc -. analytic) < 0.02)

let test_yield_monotone_in_deadline () =
  let net = Generate.tree () in
  let sizes = Netlist.min_sizes net in
  let rng = Util.Rng.create 9 in
  let y d = Sta.Yield.monte_carlo ~rng:(Util.Rng.copy rng) ~model net ~sizes ~deadline:d ~n:5_000 in
  let r = Sta.Ssta.analyze ~model net ~sizes in
  let mu = Normal.mu r.Sta.Ssta.circuit in
  Alcotest.(check bool) "ordered" true (y (0.8 *. mu) <= y mu && y mu <= y (1.2 *. mu))

let test_yield_shape_families_moment_matched () =
  (* The alternative gate-delay families must actually match the first two
     moments; checked on a single-gate circuit where the circuit delay IS
     the gate delay. *)
  let net = Generate.chain ~length:1 () in
  let sizes = Netlist.min_sizes net in
  let d = (Sta.Ssta.analyze ~model net ~sizes).Sta.Ssta.gate_delay.(0) in
  List.iter
    (fun (name, shape) ->
      let samples =
        Sta.Yield.sample_circuit_delays ~rng:(Util.Rng.create 31) ~shape ~model net
          ~sizes ~n:200_000
      in
      let st = Util.Stats.of_array samples in
      if abs_float (Util.Stats.mean st -. Normal.mu d) > 0.01 then
        Alcotest.failf "%s: mean %.4f vs %.4f" name (Util.Stats.mean st) (Normal.mu d);
      if abs_float (Util.Stats.std_dev st -. Normal.sigma d) > 0.01 then
        Alcotest.failf "%s: sd %.4f vs %.4f" name (Util.Stats.std_dev st)
          (Normal.sigma d))
    [
      ("gaussian", Sta.Yield.Gaussian);
      ("uniform", Sta.Yield.Uniform);
      ("exponential", Sta.Yield.Shifted_exponential);
      ("two-point", Sta.Yield.Two_point);
    ]

let test_yield_shape_irrelevance_for_mean () =
  (* Section 3's claim, tested: the circuit-level mean is insensitive to
     the element distribution's shape (same moments). *)
  let net = Generate.tree () in
  let sizes = Netlist.min_sizes net in
  let reference = (Sta.Ssta.analyze ~model net ~sizes).Sta.Ssta.circuit in
  List.iter
    (fun shape ->
      let samples =
        Sta.Yield.sample_circuit_delays ~rng:(Util.Rng.create 32) ~shape ~model net
          ~sizes ~n:40_000
      in
      let st = Util.Stats.of_array samples in
      let rel = abs_float (Util.Stats.mean st -. Normal.mu reference) /. Normal.mu reference in
      if rel > 0.015 then Alcotest.failf "circuit mean off by %.2f%%" (100. *. rel))
    [ Sta.Yield.Uniform; Sta.Yield.Shifted_exponential; Sta.Yield.Two_point ]

(* ---- Criticality ------------------------------------------------------------------ *)

let test_crit_chain_all_critical () =
  (* A chain has exactly one path: every gate is critical in every sample. *)
  let net = Generate.chain ~length:5 () in
  let r = Sta.Crit.monte_carlo ~model net ~sizes:(Netlist.min_sizes net) ~n:500 in
  Array.iter (fun c -> check_float "always critical" 1. c) r.Sta.Crit.criticality

let test_crit_balanced_tree_split () =
  (* Balanced tree: root always critical; each mid-level gate ~50%; each
     leaf ~25%. *)
  let net = Generate.tree () in
  let r = Sta.Crit.monte_carlo ~model net ~sizes:(Netlist.min_sizes net) ~n:20_000 in
  let c = r.Sta.Crit.criticality in
  check_float ~eps:1e-9 "root" 1. c.(6);
  List.iter
    (fun mid ->
      if abs_float (c.(mid) -. 0.5) > 0.03 then
        Alcotest.failf "mid gate %d criticality %.3f (expected ~0.5)" mid c.(mid))
    [ 2; 5 ];
  List.iter
    (fun leaf ->
      if abs_float (c.(leaf) -. 0.25) > 0.03 then
        Alcotest.failf "leaf gate %d criticality %.3f (expected ~0.25)" leaf c.(leaf))
    [ 0; 1; 3; 4 ]

let test_crit_sums_and_ranking () =
  let net = Generate.tree () in
  let r = Sta.Crit.monte_carlo ~model net ~sizes:(Netlist.min_sizes net) ~n:2_000 in
  Array.iter
    (fun c ->
      if c < 0. || c > 1. then Alcotest.failf "criticality %.3f out of range" c)
    r.Sta.Crit.criticality;
  match Sta.Crit.ranked r net with
  | (top, c) :: _ ->
      Alcotest.(check string) "root ranked first" "G" top;
      check_float ~eps:1e-9 "root always critical" 1. c
  | [] -> Alcotest.fail "empty ranking"

let test_crit_invalid_n () =
  let net = Generate.tree () in
  Alcotest.check_raises "n=0" (Invalid_argument "Crit.monte_carlo: n must be positive")
    (fun () ->
      ignore (Sta.Crit.monte_carlo ~model net ~sizes:(Netlist.min_sizes net) ~n:0))

(* ---- Perturbation cone locality ---------------------------------------------------- *)

(* Resizing one gate only changes the delay model inside a well-defined
   region: the gate itself and its gate fanin drivers (whose load includes
   the resized input capacitance) get new delays, and arrivals can change
   only in the transitive fanout of that affected set.  Everything outside
   keeps its timing bit-for-bit — the structural fact the incremental
   engine's dirty-cone rule (Sta.Incr) relies on. *)

let bits = Int64.bits_of_float
let same_bits a b = bits a = bits b

let same_normal_bits a b =
  same_bits (Normal.mu a) (Normal.mu b) && same_bits (Normal.var a) (Normal.var b)

let gate_id = function Netlist.Gate g -> g | Netlist.Pi _ -> Alcotest.fail "expected gate"

let fanout_cone net seeds =
  let inside = Array.make (Netlist.n_gates net) false in
  let rec visit g =
    if not inside.(g) then begin
      inside.(g) <- true;
      List.iter (fun (c, _) -> visit c) (Netlist.fanout net g)
    end
  in
  List.iter visit seeds;
  inside

let fanin_cone net seeds =
  let inside = Array.make (Netlist.n_gates net) false in
  let rec visit g =
    if not inside.(g) then begin
      inside.(g) <- true;
      Array.iter
        (function Netlist.Gate s -> visit s | Netlist.Pi _ -> ())
        (Netlist.gate net g).Netlist.fanin
    end
  in
  List.iter visit seeds;
  inside

(* Gates whose own delay changes when gate [p] is resized. *)
let affected_by net p =
  let drivers =
    Array.to_list (Netlist.gate net p).Netlist.fanin
    |> List.filter_map (function Netlist.Gate s -> Some s | Netlist.Pi _ -> None)
  in
  p :: drivers

let prop_perturbation_locality =
  QCheck.Test.make ~count:20 ~name:"single-gate perturbation stays in its fanout cone"
    QCheck.(pair small_nat small_nat)
    (fun (net_seed, pert_seed) ->
      let net =
        Generate.random_dag
          { Generate.default_spec with Generate.n_gates = 50; seed = 300 + net_seed }
      in
      let n = Netlist.n_gates net in
      let maxs = Netlist.max_sizes net in
      let rng = Util.Rng.create (7 * pert_seed) in
      let sizes =
        Array.init n (fun g -> Util.Rng.uniform rng ~lo:1. ~hi:(0.9 *. maxs.(g)))
      in
      let p = Util.Rng.int rng n in
      let sizes' = Array.copy sizes in
      sizes'.(p) <- Util.Rng.uniform rng ~lo:1. ~hi:maxs.(p);
      let affected = affected_by net p in
      let cone = fanout_cone net affected in
      let in_affected = Array.make n false in
      List.iter (fun g -> in_affected.(g) <- true) affected;
      let s0 = Sta.Ssta.analyze ~model net ~sizes in
      let s1 = Sta.Ssta.analyze ~model net ~sizes:sizes' in
      let d0 = Sta.Dsta.analyze net ~sizes in
      let d1 = Sta.Dsta.analyze net ~sizes:sizes' in
      for g = 0 to n - 1 do
        if (not in_affected.(g))
           && not (same_normal_bits s0.Sta.Ssta.gate_delay.(g) s1.Sta.Ssta.gate_delay.(g))
        then
          QCheck.Test.fail_reportf "gate %d delay changed outside affected set" g;
        if not cone.(g) then begin
          if not (same_normal_bits s0.Sta.Ssta.arrival.(g) s1.Sta.Ssta.arrival.(g)) then
            QCheck.Test.fail_reportf "gate %d ssta arrival changed outside cone" g;
          if not (same_bits d0.Sta.Dsta.arrival.(g) d1.Sta.Dsta.arrival.(g)) then
            QCheck.Test.fail_reportf "gate %d dsta arrival changed outside cone" g
        end
      done;
      true)

let test_slack_unchanged_outside_cones () =
  (* Slack mixes a forward pass (arrival) with a backward pass (required),
     so it is invariant outside the union of the affected set's fanout
     cone (arrival unchanged) and fanin cone (required unchanged). *)
  let net =
    Generate.random_dag { Generate.default_spec with Generate.n_gates = 60; seed = 5 }
  in
  let n = Netlist.n_gates net in
  let sizes = Netlist.min_sizes net in
  let p = n / 2 in
  let sizes' = Array.copy sizes in
  sizes'.(p) <- 2.5;
  let affected = affected_by net p in
  let out_cone = fanout_cone net affected and in_cone = fanin_cone net affected in
  let deadline = (Sta.Dsta.analyze net ~sizes).Sta.Dsta.circuit +. 2. in
  let s0 = Sta.Dsta.slack net ~sizes ~deadline in
  let s1 = Sta.Dsta.slack net ~sizes:sizes' ~deadline in
  let untouched = ref 0 and changed = ref 0 in
  for g = 0 to n - 1 do
    if (not out_cone.(g)) && not in_cone.(g) then begin
      incr untouched;
      if not (same_bits s0.(g) s1.(g)) then
        Alcotest.failf "gate %d slack changed outside both cones" g
    end
    else if not (same_bits s0.(g) s1.(g)) then incr changed
  done;
  Alcotest.(check bool) "some gates outside both cones" true (!untouched > 0);
  Alcotest.(check bool) "perturbation actually moved some slack" true (!changed > 0)

(* A netlist with two structurally disjoint components: A is a NAND tree
   over 8 PIs feeding a 6-stage inverter chain (deep, always the latest
   PO by a ~9 sigma margin), B is a short 2-inverter chain. *)
let two_component_net () =
  let nand2 = Cell.nand 2 in
  let inv = Cell.make ~name:"inv" ~n_inputs:1 ~c_in:0.25 () in
  let b = Netlist.Builder.create ~name:"two-comp" () in
  let pis =
    Array.init 8 (fun i -> Netlist.Builder.add_pi b (Printf.sprintf "a%d" i))
  in
  let rec reduce = function
    | [] -> Alcotest.fail "empty reduction"
    | [ x ] -> x
    | xs ->
        let rec pair = function
          | x :: y :: tl -> Netlist.Builder.add_gate b ~cell:nand2 [ x; y ] :: pair tl
          | tl -> tl
        in
        reduce (pair xs)
  in
  let root = ref (reduce (Array.to_list pis)) in
  for _ = 1 to 6 do
    root := Netlist.Builder.add_gate b ~cell:inv [ !root ]
  done;
  Netlist.Builder.mark_po b !root;
  let bp = Netlist.Builder.add_pi b "b0" in
  let b1 = Netlist.Builder.add_gate b ~cell:inv [ bp ] in
  let b2 = Netlist.Builder.add_gate b ~cell:inv [ b1 ] in
  Netlist.Builder.mark_po b b2;
  (Netlist.Builder.build b, gate_id b1, gate_id b2)

let test_crit_unchanged_outside_perturbed_cone () =
  let net, b1, b2 = two_component_net () in
  let n = Netlist.n_gates net in
  let sizes = Netlist.min_sizes net in
  let sizes' = Array.copy sizes in
  sizes'.(b2) <- 2.5;
  let cone = fanout_cone net (affected_by net b2) in
  Alcotest.(check bool) "cone is exactly component B" true
    (Array.to_list (Array.mapi (fun g c -> (g, c)) cone)
    |> List.for_all (fun (g, c) -> c = (g = b1 || g = b2)));
  (* Same seed on both runs: per-gate delay draws consume the same
     uniforms whatever mu/sigma they are scaled by, so samples for
     unperturbed gates are bitwise identical across the two estimates. *)
  let c0 = Sta.Crit.monte_carlo ~rng:(Util.Rng.create 123) ~model net ~sizes ~n:4_000 in
  let c1 =
    Sta.Crit.monte_carlo ~rng:(Util.Rng.create 123) ~model net ~sizes:sizes' ~n:4_000
  in
  let nondegenerate = ref 0 in
  for g = 0 to n - 1 do
    if not cone.(g) then begin
      if not (same_bits c0.Sta.Crit.criticality.(g) c1.Sta.Crit.criticality.(g)) then
        Alcotest.failf "gate %d criticality changed outside the perturbed cone" g;
      let c = c0.Sta.Crit.criticality.(g) in
      if c > 0.05 && c < 0.95 then incr nondegenerate
    end
    else
      check_float ~eps:1e-9 "B gates never traced (off the critical component)" 0.
        c1.Sta.Crit.criticality.(g)
  done;
  Alcotest.(check bool) "comparison covers fractional criticalities" true
    (!nondegenerate >= 4)

let test_crit_rng_determinism () =
  let net = Generate.tree () in
  let sizes = Netlist.min_sizes net in
  let run () =
    Sta.Crit.monte_carlo ~rng:(Util.Rng.create 77) ~model net ~sizes ~n:1_000
  in
  let a = run () and b = run () in
  Alcotest.(check int) "same sample count" a.Sta.Crit.samples b.Sta.Crit.samples;
  Array.iteri
    (fun g c ->
      if not (same_bits c b.Sta.Crit.criticality.(g)) then
        Alcotest.failf "gate %d criticality not reproducible" g)
    a.Sta.Crit.criticality

(* ---- Cssta / Corner differential tests -------------------------------------- *)

(* Shared circuit set for the satellite-engine differential tests: the
   same nets at the same (non-trivially sized) operating points, so the
   unit tests here exercise exactly what the sim harness's
   `cssta-vs-ssta` / `corner-envelope` invariants check per-op. *)
let differential_circuits () =
  let sized net =
    let mins = Netlist.min_sizes net and maxs = Netlist.max_sizes net in
    let sizes =
      Array.init (Netlist.n_gates net) (fun i ->
          mins.(i) +. (0.3 *. (maxs.(i) -. mins.(i))))
    in
    (net, sizes)
  in
  [
    ("tree", sized (Generate.tree ()));
    ("chain", sized (Generate.chain ()));
    ("fig2", sized (Generate.example_fig2 ()));
    ( "dag120",
      sized
        (Generate.random_dag
           { Generate.default_spec with Generate.n_gates = 120; n_pis = 15; seed = 7 })
    );
  ]

let same_bits_f a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* The independence-assumption half of Cssta.compare_to_independent IS
   the Ssta analysis: bit-identical circuit moments on every shared
   circuit. *)
let test_cssta_independent_half_is_ssta () =
  List.iter
    (fun (name, (net, sizes)) ->
      let ind, _ = Sta.Cssta.compare_to_independent ~model net ~sizes in
      let ssta = (Sta.Ssta.analyze ~model net ~sizes).Sta.Ssta.circuit in
      if
        not
          (same_bits_f ind.Normal.mu ssta.Normal.mu
          && same_bits_f ind.Normal.var ssta.Normal.var)
      then
        Alcotest.failf "%s: independent half (%h, %h) <> ssta (%h, %h)" name
          ind.Normal.mu ind.Normal.var ssta.Normal.mu ssta.Normal.var)
    (differential_circuits ())

(* Without reconvergent fanout (chains, trees) the correlation-aware
   analysis must agree with the independence assumption: there is
   nothing to be correlated about. *)
let test_cssta_equals_ssta_without_reconvergence () =
  List.iter
    (fun (name, (net, sizes)) ->
      let ind, corr = Sta.Cssta.compare_to_independent ~model net ~sizes in
      check_float ~eps:1e-9 (name ^ ": mu") ind.Normal.mu corr.Normal.mu;
      check_float ~eps:1e-9 (name ^ ": var") ind.Normal.var corr.Normal.var)
    [
      ("tree", List.assoc "tree" (differential_circuits ()));
      ("chain", List.assoc "chain" (differential_circuits ()));
    ]

(* Correlation matrices are correlation matrices: symmetric, entries in
   [-1, 1], unit diagonal for gates with arrival variance. *)
let test_cssta_matrix_sane_on_shared_circuits () =
  List.iter
    (fun (name, (net, sizes)) ->
      let res = Sta.Cssta.analyze ~model net ~sizes in
      let c = res.Sta.Cssta.correlation in
      Array.iteri
        (fun i row ->
          Array.iteri
            (fun j r ->
              if abs_float r > 1. +. 1e-9 then
                Alcotest.failf "%s: correlation.(%d).(%d) = %h" name i j r;
              if abs_float (r -. c.(j).(i)) > 1e-12 then
                Alcotest.failf "%s: correlation not symmetric at (%d,%d)" name i j)
            row;
          let arr = res.Sta.Cssta.arrival.(i) in
          if arr.Normal.var > 1e-15 && abs_float (c.(i).(i) -. 1.) > 1e-9 then
            Alcotest.failf "%s: diagonal %d = %h" name i c.(i).(i))
        c)
    (differential_circuits ())

(* Corner analysis against Ssta/Dsta on the shared circuits: envelope
   order, typical = deterministic, statistical mean dominates typical
   (Clark's max mean dominates the max of means), guard band monotone
   in k. *)
let test_corner_vs_ssta_on_shared_circuits () =
  List.iter
    (fun (name, (net, sizes)) ->
      let c1 = Sta.Corner.analyze ~k:1. ~model net ~sizes in
      let c3 = Sta.Corner.analyze ~k:3. ~model net ~sizes in
      Alcotest.(check bool)
        (name ^ ": best <= typical <= worst")
        true
        (c3.Sta.Corner.best <= c3.Sta.Corner.typical
        && c3.Sta.Corner.typical <= c3.Sta.Corner.worst);
      let d = Sta.Dsta.analyze net ~sizes in
      check_float ~eps:1e-9 (name ^ ": typical = dsta") d.Sta.Dsta.circuit
        c3.Sta.Corner.typical;
      let ssta = (Sta.Ssta.analyze ~model net ~sizes).Sta.Ssta.circuit in
      Alcotest.(check bool)
        (name ^ ": statistical mean above typical")
        true
        (ssta.Normal.mu >= c3.Sta.Corner.typical -. 1e-9);
      Alcotest.(check bool)
        (name ^ ": guard band monotone in k")
        true
        (c3.Sta.Corner.worst >= c1.Sta.Corner.worst -. 1e-12
        && c3.Sta.Corner.best <= c1.Sta.Corner.best +. 1e-12))
    (differential_circuits ())

(* With the Zero sigma model the three corners and the statistical
   analysis all collapse onto the deterministic delay. *)
let test_corner_zero_model_collapses_to_ssta () =
  List.iter
    (fun (name, (net, sizes)) ->
      let c = Sta.Corner.analyze ~model:Sigma_model.Zero net ~sizes in
      let s = (Sta.Ssta.analyze ~model:Sigma_model.Zero net ~sizes).Sta.Ssta.circuit in
      check_float ~eps:1e-9 (name ^ ": best = worst") c.Sta.Corner.best
        c.Sta.Corner.worst;
      check_float ~eps:1e-9 (name ^ ": statistical = typical") c.Sta.Corner.typical
        s.Normal.mu;
      check_float ~eps:1e-12 (name ^ ": zero variance") 0. s.Normal.var)
    (differential_circuits ())

let () =
  Alcotest.run "sta"
    [
      ( "dsta",
        [
          Alcotest.test_case "chain by hand" `Quick test_dsta_chain_by_hand;
          Alcotest.test_case "sizing speeds up" `Quick test_dsta_sizing_speeds_up;
          Alcotest.test_case "external delays" `Quick test_dsta_external_delays;
          Alcotest.test_case "pi arrival" `Quick test_dsta_pi_arrival;
          Alcotest.test_case "required / slack" `Quick test_dsta_required_and_slack;
          Alcotest.test_case "critical path chain" `Quick test_dsta_critical_path_chain;
          Alcotest.test_case "critical path unbalanced" `Quick
            test_dsta_critical_path_unbalanced;
          Alcotest.test_case "flat walk on a .bench load" `Quick test_dsta_flat_walk;
          Alcotest.test_case "critical path on a .bench load" `Quick
            test_dsta_critical_path_bench;
        ] );
      ( "ssta",
        [
          Alcotest.test_case "chain adds" `Quick test_ssta_chain_no_max;
          Alcotest.test_case "sigma model applied" `Quick test_ssta_sigma_model_applied;
          Alcotest.test_case "zero model = dsta" `Quick test_ssta_zero_model_matches_dsta;
          Alcotest.test_case "mu above deterministic" `Quick test_ssta_mu_above_dsta;
          Alcotest.test_case "balanced tree shrinks sigma" `Quick
            test_ssta_balanced_tree_sigma_shrinks;
          Alcotest.test_case "matches Monte Carlo (tree)" `Slow test_ssta_vs_monte_carlo_tree;
          Alcotest.test_case "pi arrival distribution" `Quick test_ssta_pi_arrival_distribution;
          Alcotest.test_case "exact n-ary mode" `Quick test_ssta_exact_nary_mode;
        ] );
      ( "gradient",
        [
          Alcotest.test_case "fd tree" `Quick test_gradient_fd_tree;
          Alcotest.test_case "fd fig2" `Quick test_gradient_fd_fig2;
          Alcotest.test_case "fd chain" `Quick test_gradient_fd_chain;
          Alcotest.test_case "fd random dag" `Quick test_gradient_fd_random_dag;
          Alcotest.test_case "fd multi-po" `Quick test_gradient_fd_multi_po;
          Alcotest.test_case "fd sigma seed" `Quick test_gradient_sigma_seed_fd;
          Alcotest.test_case "descent at min sizes" `Quick
            test_gradient_min_delay_negative_at_min_sizes;
          Alcotest.test_case "value_and_gradient consistent" `Quick
            test_value_and_gradient_consistent;
        ] );
      ( "yield",
        [
          Alcotest.test_case "analytic" `Quick test_yield_analytic;
          Alcotest.test_case "mc matches analytic" `Slow
            test_yield_monte_carlo_matches_analytic_tree;
          Alcotest.test_case "monotone in deadline" `Quick test_yield_monotone_in_deadline;
          Alcotest.test_case "shape families moment-matched" `Slow
            test_yield_shape_families_moment_matched;
          Alcotest.test_case "shape irrelevance for mean" `Slow
            test_yield_shape_irrelevance_for_mean;
        ] );
      ( "corner",
        [
          Alcotest.test_case "ordering" `Quick (fun () ->
              let net = Generate.tree () in
              let sizes = Netlist.min_sizes net in
              let c = Sta.Corner.analyze ~model net ~sizes in
              Alcotest.(check bool) "best < typical < worst" true
                (c.Sta.Corner.best < c.Sta.Corner.typical
                && c.Sta.Corner.typical < c.Sta.Corner.worst));
          Alcotest.test_case "typical = deterministic" `Quick (fun () ->
              let net = Generate.tree () in
              let sizes = Netlist.min_sizes net in
              let c = Sta.Corner.analyze ~model net ~sizes in
              let d = Sta.Dsta.analyze net ~sizes in
              check_float ~eps:1e-9 "typical" d.Sta.Dsta.circuit c.Sta.Corner.typical);
          Alcotest.test_case "zero model collapses corners" `Quick (fun () ->
              let net = Generate.tree () in
              let sizes = Netlist.min_sizes net in
              let c = Sta.Corner.analyze ~model:Sigma_model.Zero net ~sizes in
              check_float ~eps:1e-9 "best = worst" c.Sta.Corner.best c.Sta.Corner.worst);
          Alcotest.test_case "pessimism vs statistical" `Slow (fun () ->
              let net = Generate.tree () in
              let sizes = Netlist.min_sizes net in
              let p = Sta.Corner.pessimism ~model net ~sizes ~samples:10_000 in
              Alcotest.(check bool) "worst corner above statistical" true
                (p.Sta.Corner.corners.Sta.Corner.worst > p.Sta.Corner.statistical);
              Alcotest.(check bool) "overestimates reality" true
                (p.Sta.Corner.overestimate > 1.05);
              Alcotest.(check bool) "statistical tracks MC" true
                (abs_float (p.Sta.Corner.statistical -. p.Sta.Corner.monte_carlo_quantile)
                 /. p.Sta.Corner.monte_carlo_quantile
                < 0.02));
        ] );
      ( "differential",
        [
          Alcotest.test_case "cssta independent half = ssta" `Quick
            test_cssta_independent_half_is_ssta;
          Alcotest.test_case "cssta = ssta without reconvergence" `Quick
            test_cssta_equals_ssta_without_reconvergence;
          Alcotest.test_case "cssta matrix sane" `Quick
            test_cssta_matrix_sane_on_shared_circuits;
          Alcotest.test_case "corner vs ssta" `Quick
            test_corner_vs_ssta_on_shared_circuits;
          Alcotest.test_case "zero model collapses" `Quick
            test_corner_zero_model_collapses_to_ssta;
        ] );
      ( "criticality",
        [
          Alcotest.test_case "chain all critical" `Quick test_crit_chain_all_critical;
          Alcotest.test_case "balanced tree split" `Slow test_crit_balanced_tree_split;
          Alcotest.test_case "range and ranking" `Quick test_crit_sums_and_ranking;
          Alcotest.test_case "invalid n" `Quick test_crit_invalid_n;
        ] );
      ( "cone locality",
        [
          Seed_info.to_alcotest prop_perturbation_locality;
          Alcotest.test_case "slack outside both cones" `Quick
            test_slack_unchanged_outside_cones;
          Alcotest.test_case "criticality outside perturbed cone" `Quick
            test_crit_unchanged_outside_perturbed_cone;
          Alcotest.test_case "criticality rng determinism" `Quick
            test_crit_rng_determinism;
        ] );
    ]
