(* Tests for the canonical first-order correlated SSTA stack:

   - the Canon operator algebra (tightness probabilities and the
     correlated max against Monte Carlo and against the record-based
     Correlation module, rho clipping, degenerate spreads);
   - the residual-only bit-identity contract: a canonical arena whose
     varmodel has shared parameters but ZERO source weights must
     reproduce the independent engines Int64-bit-identically — values
     and gradients, at 1/2/4 domains, through Ssta and Incr alike;
   - canonical circuit moments against the dense Cssta oracle on small
     circuits under a nontrivial grid model;
   - the canonical adjoint sweep against central finite differences;
   - keyed-RNG determinism of correlated Mcsta across batch sizes and
     pool widths;
   - the headline accuracy claim: under a strong shared-source model the
     canonical engine's circuit sigma tracks correlated Monte Carlo
     strictly better than the independent engine on reconvergent
     circuits;
   - the canonical fwd+rev pair's per-gate allocation budget. *)

open Circuit
open Statdelay

let model = Sigma_model.paper_default
let pool2 = Util.Pool.create ~jobs:2 ()
let pool4 = Util.Pool.create ~jobs:4 ()
let pools = [ (1, None); (2, Some pool2); (4, Some pool4) ]
let bits = Int64.bits_of_float

let check_float ?(eps = 1e-12) msg expected actual =
  Alcotest.check (Alcotest.float eps) msg expected actual

let check_floats_identical msg (a : float array) (b : float array) =
  Alcotest.(check int) (msg ^ ": length") (Array.length a) (Array.length b);
  Array.iteri
    (fun i x ->
      if not (Int64.equal (bits x) (bits b.(i))) then
        Alcotest.failf "%s: slot %d: %h <> %h" msg i x b.(i))
    a

(* Gradients of the zero-weight canonical sweep agree with the
   independent sweep up to the sign of zero (the sensitivity terms
   contribute exact +0. products). *)
let check_floats_equal msg (a : float array) (b : float array) =
  Alcotest.(check int) (msg ^ ": length") (Array.length a) (Array.length b);
  Array.iteri
    (fun i x ->
      if not (x = b.(i)) then Alcotest.failf "%s: slot %d: %h <> %h" msg i x b.(i))
    a

let check_results_identical msg (a : Sta.Ssta.result) (b : Sta.Ssta.result) =
  let pair msg (x : Normal.t) (y : Normal.t) =
    if
      not
        (Int64.equal (bits (Normal.mu x)) (bits (Normal.mu y))
        && Int64.equal (bits (Normal.var x)) (bits (Normal.var y)))
    then
      Alcotest.failf "%s: (%h, %h) <> (%h, %h)" msg (Normal.mu x) (Normal.var x)
        (Normal.mu y) (Normal.var y)
  in
  pair (msg ^ ": circuit") a.Sta.Ssta.circuit b.Sta.Ssta.circuit;
  Array.iteri
    (fun i x -> pair (msg ^ ": arrival") x b.Sta.Ssta.arrival.(i))
    a.Sta.Ssta.arrival;
  Array.iteri
    (fun i x -> pair (msg ^ ": gate_delay") x b.Sta.Ssta.gate_delay.(i))
    a.Sta.Ssta.gate_delay

(* A canonical pair with a prescribed operand correlation, realized
   through one shared source: sens_a = sigma_a sqrt|rho|,
   sens_b = sign(rho) sigma_b sqrt|rho|. *)
let correlated_pair ~mu_a ~var_a ~mu_b ~var_b ~rho =
  let sa = sqrt var_a and sb = sqrt var_b in
  let r = sqrt (abs_float rho) in
  let a = Canon.make ~mu:mu_a ~var:var_a ~sens:[| sa *. r; 0. |] in
  let b =
    Canon.make ~mu:mu_b ~var:var_b
      ~sens:[| (if rho < 0. then -.(sb *. r) else sb *. r); 0. |]
  in
  (a, b)

(* ---- Canon operator algebra -------------------------------------------------- *)

let test_zero_sens_matches_clark () =
  let rng = Util.Rng.create 7 in
  for _ = 1 to 200 do
    let mu_a = Util.Rng.uniform rng ~lo:(-5.) ~hi:5.
    and mu_b = Util.Rng.uniform rng ~lo:(-5.) ~hi:5.
    and var_a = Util.Rng.uniform rng ~lo:0. ~hi:4.
    and var_b = Util.Rng.uniform rng ~lo:0. ~hi:4. in
    let a = Canon.of_normal ~p:3 (Normal.of_var ~mu:mu_a ~var:var_a)
    and b = Canon.of_normal ~p:3 (Normal.of_var ~mu:mu_b ~var:var_b) in
    let c = Canon.max2 a b in
    let r =
      Clark.max2
        (Normal.of_var ~mu:mu_a ~var:var_a)
        (Normal.of_var ~mu:mu_b ~var:var_b)
    in
    if
      not
        (Int64.equal (bits c.Canon.mu) (bits (Normal.mu r))
        && Int64.equal (bits c.Canon.var) (bits (Normal.var r)))
    then
      Alcotest.failf "zero-sens max2: (%h, %h) <> (%h, %h)" c.Canon.mu c.Canon.var
        (Normal.mu r) (Normal.var r);
    let s = Canon.add a b in
    let rs = Normal.add (Canon.to_normal a) (Canon.to_normal b) in
    if
      not
        (Int64.equal (bits s.Canon.mu) (bits (Normal.mu rs))
        && Int64.equal (bits s.Canon.var) (bits (Normal.var rs)))
    then Alcotest.failf "zero-sens add: (%h, %h)" s.Canon.mu s.Canon.var
  done

let operand_gen =
  QCheck.Gen.(
    let moment = float_range (-4.) 4. in
    let spread = float_range 0.05 2.5 in
    let rho = float_range (-0.95) 0.95 in
    map
      (fun (mu_a, sa, mu_b, sb, rho) -> (mu_a, sa *. sa, mu_b, sb *. sb, rho))
      (tup5 moment spread moment spread rho))

let prop_max2_matches_correlation =
  QCheck.Test.make ~name:"correlated max matches Correlation.max2" ~count:300
    (QCheck.make operand_gen) (fun (mu_a, var_a, mu_b, var_b, rho) ->
      let a, b = correlated_pair ~mu_a ~var_a ~mu_b ~var_b ~rho in
      let c = Canon.max2 a b in
      let r =
        Statdelay.Correlation.max2
          (Normal.of_var ~mu:mu_a ~var:var_a)
          (Normal.of_var ~mu:mu_b ~var:var_b)
          ~rho:(Canon.rho a b)
      in
      let close x y scale = abs_float (x -. y) <= 1e-9 *. (1. +. scale) in
      close c.Canon.mu (Normal.mu r) (abs_float (Normal.mu r))
      && close c.Canon.var (Normal.var r) (Normal.var r))

let prop_tightness_mc =
  QCheck.Test.make ~name:"tightness matches MC P(A >= B)" ~count:30
    (QCheck.make operand_gen) (fun (mu_a, var_a, mu_b, var_b, rho) ->
      let a, b = correlated_pair ~mu_a ~var_a ~mu_b ~var_b ~rho in
      let t = Canon.tightness a b in
      let rng = Util.Rng.create 11 in
      let n = 20_000 in
      let sa = sqrt var_a and sb = sqrt var_b in
      let hits = ref 0 in
      for _ = 1 to n do
        let z1 = Util.Rng.gaussian rng ~mu:0. ~sigma:1.
        and z2 = Util.Rng.gaussian rng ~mu:0. ~sigma:1. in
        let xa = mu_a +. (sa *. z1) in
        let xb =
          mu_b +. (sb *. ((rho *. z1) +. (sqrt (1. -. (rho *. rho)) *. z2)))
        in
        if xa >= xb then incr hits
      done;
      let emp = float_of_int !hits /. float_of_int n in
      abs_float (t -. emp) <= 0.015)

let prop_max2_mc =
  QCheck.Test.make ~name:"correlated max moments match MC" ~count:25
    (QCheck.make operand_gen) (fun (mu_a, var_a, mu_b, var_b, rho) ->
      let a, b = correlated_pair ~mu_a ~var_a ~mu_b ~var_b ~rho in
      let c = Canon.max2 a b in
      let samples =
        Statdelay.Correlation.mc_max2 (Util.Rng.create 23)
          (Normal.of_var ~mu:mu_a ~var:var_a)
          (Normal.of_var ~mu:mu_b ~var:var_b)
          ~rho ~n:30_000
      in
      let st = Util.Stats.of_array samples in
      let scale = sqrt (max var_a var_b) in
      abs_float (c.Canon.mu -. Util.Stats.mean st) <= 0.05 *. (1. +. scale)
      (* Clark's normal matches mean and variance; the sampled std_dev
         carries its own MC error on top. *)
      && abs_float (sqrt c.Canon.var -. Util.Stats.std_dev st)
         <= 0.08 *. (1. +. scale))

let test_rho_clipping () =
  (* Sensitivity rows whose dot product overshoots the total spreads:
     the covariance must clip so theta^2 >= 0 and rho stays in [-1, 1]. *)
  let a = Canon.make ~mu:1. ~var:1. ~sens:[| 2.; 0. |] in
  let b = Canon.make ~mu:1.2 ~var:1. ~sens:[| 2.; 0. |] in
  check_float "rho clipped high" 1. (Canon.rho a b);
  let c = Canon.max2 a b in
  if not (Float.is_finite c.Canon.mu && Float.is_finite c.Canon.var) then
    Alcotest.fail "clipped max2 not finite";
  (* Perfectly correlated equal spreads: the max is the larger mean. *)
  check_float ~eps:1e-12 "perfect corr mu" 1.2 c.Canon.mu;
  let b' = Canon.make ~mu:1.2 ~var:1. ~sens:[| -2.; 0. |] in
  check_float "rho clipped low" (-1.) (Canon.rho a b');
  let c' = Canon.max2 a b' in
  if not (c'.Canon.var >= 0. && Float.is_finite c'.Canon.var) then
    Alcotest.fail "anticorrelated max2 variance invalid"

let test_degenerate_spread () =
  let a = Canon.make ~mu:3. ~var:0. ~sens:[| 0. |] in
  let b = Canon.make ~mu:2. ~var:0. ~sens:[| 0. |] in
  let c = Canon.max2 a b in
  check_float "deterministic max mu" 3. c.Canon.mu;
  check_float "deterministic max var" 0. c.Canon.var;
  check_float "tie tightness" 0.5 (Canon.tightness a (Canon.make ~mu:3. ~var:0. ~sens:[| 0. |]));
  check_float "dominant tightness" 1. (Canon.tightness a b);
  (* One live operand: blend keeps its sensitivities. *)
  let live = Canon.make ~mu:1. ~var:1. ~sens:[| 0.5 |] in
  let m = Canon.max2 live (Canon.make ~mu:(-20.) ~var:0. ~sens:[| 0. |]) in
  check_float ~eps:1e-9 "dominant sens survives" 0.5 m.Canon.sens.(0)

let test_add_shares_sources () =
  let a = Canon.make ~mu:1. ~var:2. ~sens:[| 1.; 0.5 |] in
  let b = Canon.make ~mu:2. ~var:3. ~sens:[| 0.5; -0.5 |] in
  let c = Canon.add a b in
  check_float "add mu" 3. c.Canon.mu;
  (* var_a + var_b + 2 (1*0.5 + 0.5*(-0.5)) = 5 + 0.5 *)
  check_float "add var gains 2cov" 5.5 c.Canon.var;
  check_float "sens adds (0)" 1.5 c.Canon.sens.(0);
  check_float "sens adds (1)" 0. c.Canon.sens.(1);
  check_float "cov is sens dot" 0.25 (Canon.cov a b)

(* ---- varmodel ----------------------------------------------------------------- *)

let test_varmodel_spec () =
  (match Varmodel.of_spec "grid=4x4,global=0.25,cell=0.3" with
  | Ok vm ->
      Alcotest.(check int) "params" 17 (Varmodel.n_params vm);
      check_float "global" 0.25 (Varmodel.w_global vm);
      check_float "cell" 0.3 (Varmodel.w_cell vm);
      check_float ~eps:1e-12 "residual"
        (sqrt (1. -. (0.25 *. 0.25) -. (0.3 *. 0.3)))
        (Varmodel.w_residual vm);
      (* pp round-trips *)
      (match Varmodel.of_spec (Varmodel.to_string vm) with
      | Ok vm' -> Alcotest.(check bool) "round trip" true (vm = vm')
      | Error e -> Alcotest.fail e)
  | Error e -> Alcotest.fail e);
  (match Varmodel.of_spec "independent" with
  | Ok vm -> Alcotest.(check bool) "independent" true (Varmodel.is_independent vm)
  | Error e -> Alcotest.fail e);
  (match Varmodel.of_spec "grid=3x2" with
  | Ok _ -> Alcotest.fail "non-square grid accepted"
  | Error _ -> ());
  (match Varmodel.of_spec "global=0.9,cell=0.9,grid=2x2" with
  | Ok _ -> Alcotest.fail "overfull variance accepted"
  | Error _ -> ());
  match Varmodel.of_spec "cell=0.5" with
  | Ok _ -> Alcotest.fail "cell without grid accepted"
  | Error _ -> ()

let test_varmodel_cells () =
  let net = Generate.apex2_like () in
  let vm = Varmodel.make ~grid:3 ~global_frac:0.2 ~grid_frac:0.2 () in
  let cells = Varmodel.cell_params vm net in
  Alcotest.(check int) "one cell per gate" (Netlist.n_gates net)
    (Array.length cells);
  Array.iter
    (fun c ->
      if c < 1 || c > 9 then Alcotest.failf "cell %d out of range" c)
    cells

(* ---- residual-only bit identity ---------------------------------------------- *)

let wide_dag ?(n_gates = 300) seed =
  Generate.random_dag
    {
      Generate.default_spec with
      Generate.n_gates;
      n_pis = 30;
      target_depth = 8;
      seed;
    }

let nets_under_test () =
  [
    ("fig2", Generate.example_fig2 ());
    ("tree", Generate.tree ());
    ("apex2*", Generate.apex2_like ());
    ("dag300", wide_dag 13);
  ]

(* Shared parameters allocated (p = 5) but every source weight zero: the
   delay model is residual-only, and the canonical sweeps must replay
   the independent engines bit for bit — values AND gradients. *)
let residual_only = Varmodel.make ~grid:2 ()

let test_residual_only_identity () =
  List.iter
    (fun (name, net) ->
      List.iter
        (fun (jobs, pool) ->
          let rng = Util.Rng.create (17 * jobs) in
          let n = Netlist.n_gates net in
          let maxs = Netlist.max_sizes net in
          let sizes = Array.copy (Netlist.min_sizes net) in
          let arena = Sta.Arena.create ~varmodel:residual_only net in
          Alcotest.(check int) "p" 5 (Sta.Arena.n_params arena);
          for step = 1 to 6 do
            for _ = 1 to 1 + Util.Rng.int rng (max 1 (n / 10)) do
              let i = Util.Rng.int rng n in
              sizes.(i) <- Util.Rng.uniform rng ~lo:1.0 ~hi:maxs.(i)
            done;
            let msg = Printf.sprintf "%s jobs=%d step %d" name jobs step in
            check_results_identical msg
              (Sta.Ssta.analyze ?pool ~model net ~sizes)
              (Sta.Ssta.analyze ?pool ~arena ~model net ~sizes);
            let seedf = Sta.Ssta.mu_plus_k_sigma_seed 3. in
            let res_i, grad_i =
              Sta.Ssta.value_and_gradient ?pool ~model net ~sizes ~seed:seedf
            in
            let res_c, grad_c =
              Sta.Ssta.value_and_gradient ?pool ~arena ~model net ~sizes
                ~seed:seedf
            in
            check_results_identical (msg ^ " grad pass") res_i res_c;
            check_floats_equal (msg ^ ": grad") grad_i grad_c
          done)
        pools)
    (nets_under_test ())

let test_residual_only_incr () =
  let net = Generate.apex2_like () in
  let n = Netlist.n_gates net in
  let eng = Sta.Incr.create ~varmodel:residual_only ~model net in
  let plain = Sta.Incr.create ~model net in
  let rng = Util.Rng.create 41 in
  let maxs = Netlist.max_sizes net in
  let sizes = Array.copy (Netlist.min_sizes net) in
  let seedf = Sta.Ssta.mu_plus_k_sigma_seed 3. in
  for step = 1 to 8 do
    for _ = 1 to 1 + Util.Rng.int rng 10 do
      let i = Util.Rng.int rng n in
      sizes.(i) <- Util.Rng.uniform rng ~lo:1.0 ~hi:maxs.(i)
    done;
    let msg = Printf.sprintf "incr step %d" step in
    let res_c, grad_c = Sta.Incr.value_and_gradient eng ~sizes ~seed:seedf in
    let res_i, grad_i = Sta.Incr.value_and_gradient plain ~sizes ~seed:seedf in
    check_results_identical msg res_i res_c;
    check_floats_equal (msg ^ ": grad") grad_i grad_c
  done

(* ---- canonical vs dense Cssta oracle ----------------------------------------- *)

let strong_vm = Varmodel.make ~grid:2 ~global_frac:0.4 ~grid_frac:0.4 ()

(* The dense oracle additionally captures reconvergent-path correlation
   (shared upstream residual variance), which no O(p) canonical form can
   represent — the independent engine makes the same approximation.  So:
   tight moment tolerances on lightly-reconvergent circuits, and on a
   reconvergent DAG the weaker but structural guarantee that the
   canonical moments are never farther from the dense oracle than the
   independent engine's. *)
let test_canonical_vs_cssta () =
  List.iter
    (fun (name, net, mu_tol, sigma_tol) ->
      let sizes = Netlist.min_sizes net in
      let canon =
        (Sta.Ssta.analyze ~varmodel:strong_vm ~model net ~sizes).Sta.Ssta.circuit
      in
      let ind = (Sta.Ssta.analyze ~model net ~sizes).Sta.Ssta.circuit in
      let dense =
        (Sta.Cssta.analyze ~varmodel:strong_vm ~model net ~sizes).Sta.Cssta.circuit
      in
      let mu_c = Normal.mu canon and mu_d = Normal.mu dense in
      let sg_c = Normal.sigma canon and sg_d = Normal.sigma dense in
      if abs_float (mu_c -. mu_d) > mu_tol *. max 1. (abs_float mu_d) then
        Alcotest.failf "%s: canonical mu %g vs dense %g" name mu_c mu_d;
      if abs_float (sg_c -. sg_d) > sigma_tol *. max 0.01 sg_d then
        Alcotest.failf "%s: canonical sigma %g vs dense %g" name sg_c sg_d;
      if
        abs_float (sg_c -. sg_d)
        > abs_float (Normal.sigma ind -. sg_d) +. 1e-9
      then
        Alcotest.failf "%s: canonical sigma %g farther from dense %g than independent %g"
          name sg_c sg_d (Normal.sigma ind))
    [
      ("fig2", Generate.example_fig2 (), 0.02, 0.15);
      ("tree", Generate.tree (), 0.02, 0.15);
      ("dag60", wide_dag ~n_gates:60 5, 0.08, 0.25);
    ]

(* ---- canonical adjoint vs finite differences --------------------------------- *)

let test_canonical_gradient_fd () =
  let net = Generate.tree () in
  let n = Netlist.n_gates net in
  let vm = Varmodel.make ~grid:2 ~global_frac:0.4 ~grid_frac:0.3 () in
  let sizes = Array.init n (fun i -> 1.5 +. (0.1 *. float_of_int (i mod 4))) in
  let seedf = Sta.Ssta.mu_plus_k_sigma_seed 3. in
  let f s =
    let r = Sta.Ssta.analyze ~varmodel:vm ~model net ~sizes:s in
    Normal.mu_plus_k_sigma r.Sta.Ssta.circuit 3.
  in
  let _, grad =
    Sta.Ssta.value_and_gradient ~varmodel:vm ~model net ~sizes ~seed:seedf
  in
  let h = 1e-5 in
  for i = 0 to n - 1 do
    let up = Array.copy sizes and dn = Array.copy sizes in
    up.(i) <- sizes.(i) +. h;
    dn.(i) <- sizes.(i) -. h;
    let fd = (f up -. f dn) /. (2. *. h) in
    if abs_float (fd -. grad.(i)) > 1e-3 *. max 1. (abs_float fd) then
      Alcotest.failf "gate %d: adjoint %g vs finite difference %g" i grad.(i) fd
  done

(* ---- correlated Monte Carlo determinism -------------------------------------- *)

let test_mc_correlated_determinism () =
  let net = Generate.apex2_like () in
  let sizes = Netlist.min_sizes net in
  let vm = Varmodel.make ~grid:4 ~global_frac:0.25 ~grid_frac:0.25 () in
  let run ?pool ~batch () =
    Sta.Mcsta.sample ?pool ~batch ~seed:9 ~varmodel:vm ~model net ~sizes ~n:300
  in
  let reference = run ~batch:300 () in
  List.iter
    (fun batch ->
      check_floats_identical
        (Printf.sprintf "batch %d" batch)
        reference
        (run ~batch ()))
    [ 64; 97; 300 ];
  List.iter
    (fun (jobs, pool) ->
      check_floats_identical
        (Printf.sprintf "jobs %d" jobs)
        reference
        (run ?pool ~batch:128 ()))
    pools;
  (* Correlated and independent modes draw from disjoint streams but the
     same seed; they must differ under a nontrivial model. *)
  let independent = Sta.Mcsta.sample ~seed:9 ~model net ~sizes ~n:300 in
  if reference = independent then
    Alcotest.fail "correlated sampling identical to independent"

(* ---- sigma tracking vs correlated ground truth ------------------------------- *)

(* fig2, apex1* and apex2*: canonical errors against 20,000 correlated
   samples are about 0.001 / 0.34 / 0.20, independent errors about
   0.08 / 6.9 / 2.8. *)
let test_sigma_tracks_mc () =
  let vm = Varmodel.make ~grid:2 ~global_frac:0.5 ~grid_frac:0.5 () in
  List.iter
    (fun (name, net) ->
      let sizes = Netlist.min_sizes net in
      let samples =
        Sta.Mcsta.sample ~seed:3 ~varmodel:vm ~model net ~sizes ~n:20_000
      in
      let mc = Sta.Mcsta.summarize samples in
      let canon =
        (Sta.Ssta.analyze ~varmodel:vm ~model net ~sizes).Sta.Ssta.circuit
      in
      let ind = (Sta.Ssta.analyze ~model net ~sizes).Sta.Ssta.circuit in
      let err_canon = abs_float (Normal.sigma canon -. mc.Sta.Mcsta.sigma) in
      let err_ind = abs_float (Normal.sigma ind -. mc.Sta.Mcsta.sigma) in
      if not (err_canon < err_ind) then
        Alcotest.failf
          "%s: canonical sigma no better: canon %.5f ind %.5f mc %.5f (errors %.5f \
           vs %.5f)"
          name (Normal.sigma canon) (Normal.sigma ind) mc.Sta.Mcsta.sigma err_canon
          err_ind;
      (* The shared sources must also move the canonical sigma visibly
         away from the independent prediction. *)
      if abs_float (Normal.sigma canon -. Normal.sigma ind) < 1e-6 then
        Alcotest.failf "%s: canonical sigma did not move under a strong varmodel"
          name)
    [
      ("fig2", Generate.example_fig2 ());
      ("apex1*", Generate.apex1_like ());
      ("apex2*", Generate.apex2_like ());
    ]

(* ---- canonical sweep allocation ---------------------------------------------- *)

(* The p = 17 canonical forward+reverse pair on a reused arena.  The
   Canon kernels loop over the parameter count, and the non-flambda
   inliner does not inline loop-bearing functions, so each
   cross-library kernel call boxes its float arguments: about 2 words
   per gate in release builds.  The ceiling is 4 words/gate, tight
   enough that any per-gate scratch array (>= p + 2 words) fails it.
   In the dev profile (-opaque, no inlining at all) every per-plane
   kernel call boxes, so the ceiling scales with the planes. *)
let test_canonical_words_per_eval () =
  let net =
    Generate.random_dag
      {
        Generate.default_spec with
        Generate.n_gates = 2400;
        n_pis = 96;
        target_depth = 12;
        seed = 77;
      }
  in
  let n = Netlist.n_gates net in
  let sizes = Netlist.min_sizes net in
  let vm = Varmodel.make ~grid:4 ~global_frac:0.25 ~grid_frac:0.25 () in
  let arena = Sta.Arena.create ~varmodel:vm net in
  let p = Sta.Arena.n_params arena in
  Alcotest.(check int) "p" 17 p;
  let pair () =
    Sta.Ssta.forward_raw ~model arena ~sizes;
    Sta.Ssta.reverse_raw ~model arena ~d_mu:1. ~d_var:0.
  in
  let reps = 20 in
  pair ();
  Gc.full_major ();
  let w0 = Gc.minor_words () in
  for _ = 1 to reps do
    pair ()
  done;
  let words = (Gc.minor_words () -. w0) /. float_of_int reps in
  let ceiling =
    if Release_profile.kernels_inlined () then 4. *. float_of_int n
    else 128. *. float_of_int (n * (1 + p))
  in
  if words > ceiling then
    Alcotest.failf "canonical fwd+rev allocates %.0f words/eval (ceiling %.0f)" words
      ceiling

let () =
  let q = Seed_info.to_alcotest in
  Alcotest.run "canon"
    [
      ( "operators",
        [
          Alcotest.test_case "zero-sens matches Clark bitwise" `Quick
            test_zero_sens_matches_clark;
          q prop_max2_matches_correlation;
          q prop_tightness_mc;
          q prop_max2_mc;
          Alcotest.test_case "rho clipping" `Quick test_rho_clipping;
          Alcotest.test_case "degenerate spreads" `Quick test_degenerate_spread;
          Alcotest.test_case "add shares sources" `Quick test_add_shares_sources;
        ] );
      ( "varmodel",
        [
          Alcotest.test_case "spec parsing" `Quick test_varmodel_spec;
          Alcotest.test_case "grid cells" `Quick test_varmodel_cells;
        ] );
      ( "bit identity",
        [
          Alcotest.test_case "residual-only Ssta x 1/2/4 domains" `Quick
            test_residual_only_identity;
          Alcotest.test_case "residual-only Incr" `Quick test_residual_only_incr;
        ] );
      ( "accuracy",
        [
          Alcotest.test_case "canonical vs dense Cssta" `Quick
            test_canonical_vs_cssta;
          Alcotest.test_case "canonical gradient vs finite differences" `Quick
            test_canonical_gradient_fd;
          Alcotest.test_case "sigma tracks correlated MC" `Quick
            test_sigma_tracks_mc;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "canonical fwd+rev words/eval" `Quick
            test_canonical_words_per_eval;
        ] );
      ( "mc determinism",
        [
          Alcotest.test_case "batch and pool invariance" `Quick
            test_mc_correlated_determinism;
        ] );
    ]
