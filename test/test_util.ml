(* Tests for the util library: special functions, RNG, statistics, tables,
   numerics. *)

let check_float ?(eps = 1e-12) msg expected actual =
  Alcotest.check (Alcotest.float eps) msg expected actual

(* ---- Special ------------------------------------------------------------- *)

(* Reference values from standard tables (15+ significant digits). *)
let test_erf_known_values () =
  check_float "erf 0" 0. (Util.Special.erf 0.);
  check_float ~eps:1e-14 "erf 0.1" 0.112462916018285 (Util.Special.erf 0.1);
  check_float ~eps:1e-14 "erf 0.5" 0.520499877813047 (Util.Special.erf 0.5);
  check_float ~eps:1e-14 "erf 1" 0.842700792949715 (Util.Special.erf 1.);
  check_float ~eps:1e-14 "erf 2" 0.995322265018953 (Util.Special.erf 2.);
  check_float ~eps:1e-14 "erf 3" 0.999977909503001 (Util.Special.erf 3.);
  check_float ~eps:1e-15 "erf -1" (-0.842700792949715) (Util.Special.erf (-1.))

let test_erfc_known_values () =
  check_float ~eps:1e-14 "erfc 1" 0.157299207050285 (Util.Special.erfc 1.);
  check_float ~eps:1e-17 "erfc 3" 2.20904969985854e-5 (Util.Special.erfc 3.);
  (* far tail: relative accuracy matters *)
  let v = Util.Special.erfc 6. in
  Alcotest.(check bool)
    "erfc 6 relative" true
    (Util.Numerics.approx_eq ~rtol:1e-10 v 2.15197367124989e-17);
  check_float ~eps:1e-14 "erfc -1 = 2 - erfc 1" (2. -. 0.157299207050285)
    (Util.Special.erfc (-1.))

let test_erf_erfc_consistency () =
  List.iter
    (fun x ->
      check_float ~eps:1e-13
        (Printf.sprintf "erf+erfc at %g" x)
        1.
        (Util.Special.erf x +. Util.Special.erfc x))
    [ -3.; -0.7; 0.; 0.3; 0.46; 0.47; 1.; 3.9; 4.1; 8. ]

let test_normal_cdf () =
  check_float ~eps:1e-14 "Phi 0" 0.5 (Util.Special.normal_cdf 0.);
  check_float ~eps:1e-10 "Phi 1.96" 0.975002104851780 (Util.Special.normal_cdf 1.96);
  check_float ~eps:1e-10 "Phi -1.96" 0.024997895148220 (Util.Special.normal_cdf (-1.96));
  check_float ~eps:1e-12 "Phi 1" 0.841344746068543 (Util.Special.normal_cdf 1.);
  check_float ~eps:1e-12 "Phi 3" 0.998650101968370 (Util.Special.normal_cdf 3.)

let test_normal_pdf () =
  check_float ~eps:1e-15 "phi 0" 0.398942280401433 (Util.Special.normal_pdf 0.);
  check_float ~eps:1e-15 "phi 1" 0.241970724519143 (Util.Special.normal_pdf 1.);
  check_float ~eps:1e-16 "phi symmetric" (Util.Special.normal_pdf 1.7)
    (Util.Special.normal_pdf (-1.7))

let test_normal_ppf_roundtrip () =
  List.iter
    (fun p ->
      let x = Util.Special.normal_ppf p in
      check_float ~eps:1e-12 (Printf.sprintf "Phi(ppf %g)" p) p
        (Util.Special.normal_cdf x))
    [ 1e-8; 0.001; 0.1; 0.25; 0.5; 0.841344746068543; 0.975; 0.998; 1. -. 1e-8 ]

let test_normal_ppf_invalid () =
  Alcotest.check_raises "ppf 0" (Invalid_argument
    "Special.normal_ppf: p must lie strictly within (0, 1)") (fun () ->
      ignore (Util.Special.normal_ppf 0.));
  Alcotest.check_raises "ppf 1" (Invalid_argument
    "Special.normal_ppf: p must lie strictly within (0, 1)") (fun () ->
      ignore (Util.Special.normal_ppf 1.))

let test_log_normal_cdf () =
  (* Moderate range agrees with the direct computation. *)
  List.iter
    (fun x ->
      check_float ~eps:1e-10
        (Printf.sprintf "log Phi %g" x)
        (log (Util.Special.normal_cdf x))
        (Util.Special.log_normal_cdf x))
    [ -7.; -2.; 0.; 1.5 ];
  (* Far tail stays finite and ordered. *)
  let a = Util.Special.log_normal_cdf (-20.) in
  let b = Util.Special.log_normal_cdf (-30.) in
  Alcotest.(check bool) "tail finite" true (Float.is_finite a && Float.is_finite b);
  Alcotest.(check bool) "tail ordered" true (b < a)

let prop_erf_monotone =
  QCheck.Test.make ~name:"erf is monotone increasing" ~count:500
    QCheck.(pair (float_range (-6.) 6.) (float_range (-6.) 6.))
    (fun (a, b) ->
      let lo = min a b and hi = max a b in
      Util.Special.erf lo <= Util.Special.erf hi +. 1e-15)

let prop_cdf_bounds =
  QCheck.Test.make ~name:"normal_cdf within [0,1]" ~count:500
    QCheck.(float_range (-40.) 40.)
    (fun x ->
      let v = Util.Special.normal_cdf x in
      v >= 0. && v <= 1.)

(* ---- Rng ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Util.Rng.create 42 and b = Util.Rng.create 42 in
  for i = 0 to 99 do
    Alcotest.(check int64)
      (Printf.sprintf "draw %d" i)
      (Util.Rng.uint64 a) (Util.Rng.uint64 b)
  done

let test_rng_seeds_differ () =
  let a = Util.Rng.create 1 and b = Util.Rng.create 2 in
  Alcotest.(check bool) "different streams" true (Util.Rng.uint64 a <> Util.Rng.uint64 b)

let test_rng_float_range () =
  let rng = Util.Rng.create 7 in
  for _ = 1 to 10_000 do
    let x = Util.Rng.float rng in
    if not (x >= 0. && x < 1.) then Alcotest.failf "float out of range: %g" x
  done

let test_rng_uniform_mean () =
  let rng = Util.Rng.create 3 in
  let st = Util.Stats.create () in
  for _ = 1 to 100_000 do
    Util.Stats.add st (Util.Rng.uniform rng ~lo:2. ~hi:4.)
  done;
  check_float ~eps:0.02 "uniform mean" 3. (Util.Stats.mean st);
  check_float ~eps:0.02 "uniform sd" (2. /. sqrt 12.) (Util.Stats.std_dev st)

let test_rng_normal_moments () =
  let rng = Util.Rng.create 5 in
  let st = Util.Stats.create () in
  for _ = 1 to 200_000 do
    Util.Stats.add st (Util.Rng.gaussian rng ~mu:10. ~sigma:2.)
  done;
  check_float ~eps:0.03 "normal mean" 10. (Util.Stats.mean st);
  check_float ~eps:0.03 "normal sd" 2. (Util.Stats.std_dev st)

let test_rng_int_bounds () =
  let rng = Util.Rng.create 9 in
  let counts = Array.make 5 0 in
  for _ = 1 to 50_000 do
    let i = Util.Rng.int rng 5 in
    counts.(i) <- counts.(i) + 1
  done;
  Array.iteri
    (fun i c ->
      if c < 9_000 || c > 11_000 then Alcotest.failf "bucket %d skewed: %d" i c)
    counts

let test_rng_int_invalid () =
  let rng = Util.Rng.create 1 in
  Alcotest.check_raises "n=0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Util.Rng.int rng 0))

let test_rng_split_independent () =
  let parent = Util.Rng.create 123 in
  let child = Util.Rng.split parent in
  let a = Util.Rng.uint64 parent and b = Util.Rng.uint64 child in
  Alcotest.(check bool) "split streams differ" true (a <> b)

let test_rng_copy () =
  let a = Util.Rng.create 11 in
  ignore (Util.Rng.uint64 a);
  let b = Util.Rng.copy a in
  Alcotest.(check int64) "copy replays" (Util.Rng.uint64 a) (Util.Rng.uint64 b)

let test_rng_shuffle_permutation () =
  let rng = Util.Rng.create 17 in
  let a = Array.init 100 (fun i -> i) in
  Util.Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 100 (fun i -> i)) sorted

(* Goldens: the generator's output sequences, captured as hex bit
   patterns.  Any change to the state representation must reproduce
   them exactly: Monte Carlo samples, fault plans and simulation op
   streams are all keyed on these bits. *)

let golden_create_42 =
  [ 0xd0764d4f4476689fL;
    0x519e4174576f3791L;
    0xfbe07cfb0c24ed8cL;
    0xb37d9f600cd835b8L;
    0xcb231c3874846a73L;
    0x968d9f004e50de7dL;
    0x201718ff221a3556L;
    0x9ae94e070ed8cb46L;
    0x352cf3daf095ccc7L;
    0xeeefd63219b4a0d4L;
    0x8f3dfa98020e7942L;
    0xd99b8e00792f360dL;
    0xae14e77054359b98L;
    0x11ccbfbb36590dbdL;
    0x672fcfd4efd0e0bdL;
    0x8bc6e858d0501168L ]

let golden_keyed_7_3 =
  [ 0x356a988f2f30aab9L;
    0x7717b83bce6b06b5L;
    0x82dd20de1dbea16fL;
    0xc392b416b11c7d5bL;
    0xb330a53e93438ed5L;
    0x206988c73df783f1L;
    0x923f0d52ce708fa5L;
    0xb8a3bac991e9b59fL;
    0x50483a353a020a04L;
    0xddaccd2581405e48L;
    0xfeec0c2b6d3e8e5aL;
    0x39e5dcf65d37a376L;
    0x12f11757edd564efL;
    0x05a9f5849024050dL;
    0x32df712c17b2b1f2L;
    0xeb0acfcada5f6178L ]

let golden_normal =
  [ 0xbff87170bceb9213L;
    0x3fea31ca476099c0L;
    0x3fcfe76794c607b6L;
    0x3ffdf39a800e1743L;
    0xbfb1e71525a3f372L;
    0xbfe7ffacefab4b4cL;
    0x3fe73405f483dfbaL;
    0xbfba4024af4f2fe1L;
    0x3faaea625ce6a5abL;
    0x3fd03e3742dae6b9L;
    0x3ff3ae629ac95e04L;
    0x3feb275580c41677L;
    0xbfeb24b8076b0de5L;
    0x3fb621bbd46a00e8L;
    0xbfc95c169ce0d56eL;
    0xbff973c4e55fb690L ]

let golden_copy_spare =
  [ 0x3fde153ce4d36241L;
    0xbf8e3ca68696711aL;
    0xbfe32b7a14d346caL;
    0x4000d30fff399fedL ]

let golden_split_child =
  [ 0x086fab697c4c66ffL;
    0xc6c14958a9c87769L;
    0x6197733bc3bc7376L;
    0xf492fc09f0fd153aL ]

let golden_split_parent =
  [ 0xd6914642e58d662eL;
    0xaa7521feb709887fL;
    0x863cd15c558d6bfbL;
    0x0e5f8af5861dfa40L ]

let check_bits msg golden actual =
  List.iteri
    (fun i (g, a) -> Alcotest.(check int64) (Printf.sprintf "%s %d" msg i) g a)
    (List.combine golden actual)

let test_rng_golden_streams () =
  let take16 r = List.init 16 (fun _ -> Util.Rng.uint64 r) in
  check_bits "create 42" golden_create_42 (take16 (Util.Rng.create 42));
  check_bits "keyed 7 ~key:3" golden_keyed_7_3 (take16 (Util.Rng.keyed 7 ~key:3))

(* Sixteen polar-method draws: eight served from the spare, and three
   rejected pairs, so the stream has advanced by 2 * (8 + 3) outputs. *)
let test_rng_golden_normal () =
  let r = Util.Rng.create 5 in
  check_bits "normal" golden_normal
    (List.init 16 (fun _ -> Int64.bits_of_float (Util.Rng.normal r)));
  let fresh = Util.Rng.create 5 in
  for _ = 1 to 22 do
    ignore (Util.Rng.uint64 fresh)
  done;
  Alcotest.(check int64) "22 outputs consumed" (Util.Rng.uint64 fresh) (Util.Rng.uint64 r)

(* A copy taken while a spare is pending replays the spare first. *)
let test_rng_golden_copy_spare () =
  let r = Util.Rng.create 99 in
  ignore (Util.Rng.normal r);
  let c = Util.Rng.copy r in
  let draws t = List.init 4 (fun _ -> Int64.bits_of_float (Util.Rng.normal t)) in
  check_bits "copy" golden_copy_spare (draws c);
  check_bits "original" golden_copy_spare (draws r)

let test_rng_golden_split () =
  let parent = Util.Rng.create 123 in
  let child = Util.Rng.split parent in
  let take4 r = List.init 4 (fun _ -> Util.Rng.uint64 r) in
  check_bits "child" golden_split_child (take4 child);
  check_bits "parent" golden_split_parent (take4 parent)

(* Release only (the dev profile does not inline across libraries): an
   inlined draw keeps the generator state and its floats unboxed. *)
let test_rng_gaussian_allocation () =
  if not (Release_profile.kernels_inlined ()) then Alcotest.skip ();
  let r = Util.Rng.create 1 in
  let acc = ref 0. in
  let w0 = Gc.minor_words () in
  for _ = 1 to 100_000 do
    acc := !acc +. Util.Rng.gaussian r ~mu:1. ~sigma:0.5
  done;
  let words = Gc.minor_words () -. w0 in
  ignore (Sys.opaque_identity !acc);
  if words >= 64. then Alcotest.failf "10^5 gaussian draws allocated %.0f words" words

(* ---- Stats ----------------------------------------------------------------- *)

let test_stats_welford_vs_direct () =
  let rng = Util.Rng.create 21 in
  let samples = Array.init 1000 (fun _ -> Util.Rng.gaussian rng ~mu:5. ~sigma:3.) in
  let st = Util.Stats.of_array samples in
  let n = float_of_int (Array.length samples) in
  let mean = Array.fold_left ( +. ) 0. samples /. n in
  let var =
    Array.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.)) 0. samples /. (n -. 1.)
  in
  check_float ~eps:1e-9 "mean" mean (Util.Stats.mean st);
  check_float ~eps:1e-9 "variance" var (Util.Stats.variance st)

let test_stats_empty_and_single () =
  let st = Util.Stats.create () in
  Alcotest.(check int) "count empty" 0 (Util.Stats.count st);
  check_float "variance empty" 0. (Util.Stats.variance st);
  Util.Stats.add st 4.;
  check_float "mean single" 4. (Util.Stats.mean st);
  check_float "variance single" 0. (Util.Stats.variance st);
  check_float "min" 4. (Util.Stats.min_value st);
  check_float "max" 4. (Util.Stats.max_value st)

let test_stats_quantile () =
  let samples = [| 1.; 2.; 3.; 4.; 5. |] in
  check_float "median" 3. (Util.Stats.quantile samples 0.5);
  check_float "q0" 1. (Util.Stats.quantile samples 0.);
  check_float "q1" 5. (Util.Stats.quantile samples 1.);
  check_float "q25" 2. (Util.Stats.quantile samples 0.25)

let test_stats_fraction_le () =
  let samples = [| 1.; 2.; 3.; 4. |] in
  check_float "half" 0.5 (Util.Stats.fraction_le samples 2.);
  check_float "none" 0. (Util.Stats.fraction_le samples 0.5);
  check_float "all" 1. (Util.Stats.fraction_le samples 4.)

let test_stats_histogram () =
  let samples = [| 0.; 0.1; 0.9; 1. |] in
  let h = Util.Stats.histogram samples ~bins:2 in
  Alcotest.(check int) "total" 4 (Array.fold_left ( + ) 0 h.Util.Stats.counts);
  Alcotest.(check int) "low bin" 2 h.Util.Stats.counts.(0)

(* ---- Table ------------------------------------------------------------------ *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec scan i = i + nn <= nh && (String.sub haystack i nn = needle || scan (i + 1)) in
  scan 0

let test_table_render () =
  let t = Util.Table.create ~header:[ "name"; "value" ] in
  Util.Table.set_align t 1 Util.Table.Right;
  Util.Table.add_row t [ "alpha"; "1.0" ];
  Util.Table.add_row t [ "b"; "22.5" ];
  let s = Util.Table.to_string t in
  Alcotest.(check bool) "contains header" true (contains s "name");
  Alcotest.(check bool) "right aligned" true (contains s " 1.0 |")

let test_table_pad_and_errors () =
  let t = Util.Table.create ~header:[ "a"; "b"; "c" ] in
  Util.Table.add_row t [ "x" ];
  Alcotest.check_raises "too many cells"
    (Invalid_argument "Table.add_row: more cells than columns") (fun () ->
      Util.Table.add_row t [ "1"; "2"; "3"; "4" ]);
  let s = Util.Table.to_string t in
  Alcotest.(check bool) "renders padded row" true (String.length s > 0)

let test_fmt_float () =
  Alcotest.(check string) "default" "1.23" (Util.Table.fmt_float 1.234);
  Alcotest.(check string) "decimals" "1.2340" (Util.Table.fmt_float ~decimals:4 1.234)

(* ---- Guard budgets (injectable clock) ----------------------------------------- *)

(* Deadlines on a hand-driven clock: expiry is exact at the nanosecond,
   tick raises past it, remaining time clamps at zero. *)
let test_guard_injected_clock () =
  let clock = ref 0 in
  let b = Util.Guard.budget ~now:(fun () -> !clock) ~deadline:1.0 () in
  Alcotest.(check bool)
    "fresh budget live" true
    (Util.Guard.exhausted b = None);
  clock := 999_999_999;
  Alcotest.(check bool) "1 ns inside" true (Util.Guard.exhausted b = None);
  (match Util.Guard.remaining_seconds b with
  | Some s -> check_float ~eps:1e-15 "1 ns left" 1e-9 s
  | None -> Alcotest.fail "deadline budget reports no remaining time");
  clock := 1_000_000_001;
  Alcotest.(check bool)
    "1 ns past" true
    (Util.Guard.exhausted b = Some Util.Guard.Deadline);
  (match Util.Guard.remaining_seconds b with
  | Some s -> check_float "clamped at zero" 0. s
  | None -> Alcotest.fail "deadline budget reports no remaining time");
  Alcotest.check_raises "tick raises past the deadline"
    (Util.Guard.Out_of_budget Util.Guard.Deadline) (fun () ->
      Util.Guard.tick b)

(* The default clock source is monotonic: readings never decrease, so a
   budget can never be resurrected by a wall-clock step. *)
let test_guard_monotonic_now () =
  let prev = ref (Util.Guard.monotonic_now ()) in
  for _ = 1 to 1000 do
    let t = Util.Guard.monotonic_now () in
    if t < !prev then
      Alcotest.failf "monotonic clock went backwards: %d -> %d" !prev t;
    prev := t
  done

(* ---- Numerics ----------------------------------------------------------------- *)

let test_clamp () =
  check_float "below" 1. (Util.Numerics.clamp ~lo:1. ~hi:3. 0.);
  check_float "above" 3. (Util.Numerics.clamp ~lo:1. ~hi:3. 7.);
  check_float "inside" 2. (Util.Numerics.clamp ~lo:1. ~hi:3. 2.)

let test_linspace () =
  let a = Util.Numerics.linspace 0. 1. 5 in
  Alcotest.(check int) "length" 5 (Array.length a);
  check_float "first" 0. a.(0);
  check_float "last" 1. a.(4);
  check_float "step" 0.25 a.(1)

let test_fd_gradient_quadratic () =
  let f x = (x.(0) *. x.(0)) +. (3. *. x.(1)) in
  let g = Util.Numerics.fd_gradient f [| 2.; 5. |] in
  check_float ~eps:1e-6 "d/dx0" 4. g.(0);
  check_float ~eps:1e-6 "d/dx1" 3. g.(1)

let test_dot_norms_axpy () =
  let a = [| 1.; 2.; 3. |] and b = [| 4.; 5.; 6. |] in
  check_float "dot" 32. (Util.Numerics.dot a b);
  check_float "norm2" (sqrt 14.) (Util.Numerics.norm2 a);
  check_float "norm_inf" 3. (Util.Numerics.norm_inf a);
  let y = Array.copy b in
  Util.Numerics.axpy 2. a y;
  Alcotest.(check (array (float 1e-12))) "axpy" [| 6.; 9.; 12. |] y

let test_kahan_sum () =
  let a = Array.make 10_000 0.1 in
  check_float ~eps:1e-9 "sum" 1000. (Util.Numerics.sum a)

let test_approx_eq () =
  Alcotest.(check bool) "close" true (Util.Numerics.approx_eq 1. (1. +. 1e-12));
  Alcotest.(check bool) "far" false (Util.Numerics.approx_eq 1. 1.1)

let () =
  let q = Seed_info.to_alcotest in
  Alcotest.run "util"
    [
      ( "special",
        [
          Alcotest.test_case "erf known values" `Quick test_erf_known_values;
          Alcotest.test_case "erfc known values" `Quick test_erfc_known_values;
          Alcotest.test_case "erf+erfc = 1" `Quick test_erf_erfc_consistency;
          Alcotest.test_case "normal cdf" `Quick test_normal_cdf;
          Alcotest.test_case "normal pdf" `Quick test_normal_pdf;
          Alcotest.test_case "ppf roundtrip" `Quick test_normal_ppf_roundtrip;
          Alcotest.test_case "ppf invalid" `Quick test_normal_ppf_invalid;
          Alcotest.test_case "log cdf" `Quick test_log_normal_cdf;
          q prop_erf_monotone;
          q prop_cdf_bounds;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "uniform moments" `Quick test_rng_uniform_mean;
          Alcotest.test_case "normal moments" `Quick test_rng_normal_moments;
          Alcotest.test_case "int buckets" `Quick test_rng_int_bounds;
          Alcotest.test_case "int invalid" `Quick test_rng_int_invalid;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "shuffle" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "golden create/keyed" `Quick test_rng_golden_streams;
          Alcotest.test_case "golden normal" `Quick test_rng_golden_normal;
          Alcotest.test_case "golden copy with spare" `Quick test_rng_golden_copy_spare;
          Alcotest.test_case "golden split" `Quick test_rng_golden_split;
          Alcotest.test_case "gaussian allocation" `Quick test_rng_gaussian_allocation;
        ] );
      ( "stats",
        [
          Alcotest.test_case "welford vs direct" `Quick test_stats_welford_vs_direct;
          Alcotest.test_case "empty and single" `Quick test_stats_empty_and_single;
          Alcotest.test_case "quantile" `Quick test_stats_quantile;
          Alcotest.test_case "fraction_le" `Quick test_stats_fraction_le;
          Alcotest.test_case "histogram" `Quick test_stats_histogram;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "padding and errors" `Quick test_table_pad_and_errors;
          Alcotest.test_case "fmt_float" `Quick test_fmt_float;
        ] );
      ( "guard",
        [
          Alcotest.test_case "injected clock" `Quick test_guard_injected_clock;
          Alcotest.test_case "monotonic clock source" `Quick
            test_guard_monotonic_now;
        ] );
      ( "numerics",
        [
          Alcotest.test_case "clamp" `Quick test_clamp;
          Alcotest.test_case "linspace" `Quick test_linspace;
          Alcotest.test_case "fd gradient" `Quick test_fd_gradient_quadratic;
          Alcotest.test_case "dot/norms/axpy" `Quick test_dot_norms_axpy;
          Alcotest.test_case "kahan sum" `Quick test_kahan_sum;
          Alcotest.test_case "approx_eq" `Quick test_approx_eq;
        ] );
    ]
