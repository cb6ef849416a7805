(* Tests for the parallel levelized SSTA engine: the Util.Pool domain
   pool, the Netlist levelizer, the Util.Instr counters/timers, and the
   bit-identity of parallel analyze / value_and_gradient with the serial
   path. *)

open Circuit

let model = Sigma_model.paper_default

(* Long-lived pools shared by the identity tests: spawning is the
   expensive part, and reuse across many parallel_for calls is exactly
   the production usage pattern. *)
let pool2 = Util.Pool.create ~jobs:2 ()
let pool4 = Util.Pool.create ~jobs:4 ()

(* A circuit wide enough that its level buckets exceed the parallel
   threshold, so the pooled path really runs on worker domains. *)
let wide_dag ?(n_gates = 600) seed =
  Generate.random_dag
    {
      Generate.default_spec with
      Generate.n_gates;
      n_pis = 40;
      target_depth = 8;
      seed;
    }

(* ---- Util.Pool -------------------------------------------------------------- *)

let test_pool_covers_all_indices () =
  Util.Pool.with_pool ~jobs:4 (fun pool ->
      let n = 10_000 in
      let hits = Array.make n 0 in
      Util.Pool.parallel_for pool ~n (fun i -> hits.(i) <- hits.(i) + 1);
      Alcotest.(check bool) "every index exactly once" true
        (Array.for_all (fun h -> h = 1) hits))

let test_pool_reuse_many_jobs () =
  Util.Pool.with_pool ~jobs:3 (fun pool ->
      for round = 1 to 100 do
        let n = 137 + round in
        let out = Array.make n 0 in
        Util.Pool.parallel_for pool ~n (fun i -> out.(i) <- i * i);
        Alcotest.(check int)
          (Printf.sprintf "round %d" round)
          (64 * 64)
          out.(64)
      done)

let test_pool_size_one_runs_inline () =
  Util.Pool.with_pool ~jobs:1 (fun pool ->
      Alcotest.(check int) "size" 1 (Util.Pool.size pool);
      let sum = ref 0 in
      (* Shared mutable state is safe here precisely because jobs = 1. *)
      Util.Pool.parallel_for pool ~n:100 (fun i -> sum := !sum + i);
      Alcotest.(check int) "sum" 4950 !sum)

let test_pool_small_n_runs_inline () =
  Util.Pool.with_pool ~jobs:4 (fun pool ->
      let sum = ref 0 in
      (* n < 2 * grain never leaves the calling domain. *)
      Util.Pool.parallel_for ~grain:64 pool ~n:100 (fun i -> sum := !sum + i);
      Alcotest.(check int) "sum" 4950 !sum)

let test_pool_propagates_exception () =
  Util.Pool.with_pool ~jobs:2 (fun pool ->
      (match Util.Pool.parallel_for pool ~n:1000 (fun i -> if i = 500 then failwith "boom") with
      | () -> Alcotest.fail "expected an exception"
      | exception Failure msg -> Alcotest.(check string) "message" "boom" msg);
      (* The pool survives a failed job. *)
      let out = Array.make 100 0 in
      Util.Pool.parallel_for pool ~n:100 (fun i -> out.(i) <- i);
      Alcotest.(check int) "usable after failure" 99 out.(99))

let test_pool_invalid_args () =
  Alcotest.check_raises "jobs 0" (Invalid_argument "Pool.create: jobs must be >= 1")
    (fun () -> ignore (Util.Pool.create ~jobs:0 ()));
  let p = Util.Pool.create ~jobs:1 () in
  Util.Pool.shutdown p;
  Util.Pool.shutdown p (* idempotent *)

(* ---- Netlist.level_buckets -------------------------------------------------- *)

let check_levelizer net =
  let buckets = Netlist.level_buckets net in
  let lvl = Netlist.levels net in
  (* Buckets partition 0 .. n-1. *)
  let seen = Array.make (Netlist.n_gates net) false in
  Array.iteri
    (fun l bucket ->
      let prev = ref (-1) in
      Array.iter
        (fun id ->
          Alcotest.(check bool) "sorted within bucket" true (id > !prev);
          prev := id;
          Alcotest.(check bool) "not seen twice" false seen.(id);
          seen.(id) <- true;
          Alcotest.(check int) "bucket matches level" (l + 1) lvl.(id);
          (* Every fanin sits at a strictly lower level. *)
          Array.iter
            (function
              | Netlist.Pi _ -> ()
              | Netlist.Gate f ->
                  Alcotest.(check bool) "fanin strictly lower" true (lvl.(f) < lvl.(id)))
            (Netlist.gate net id).Netlist.fanin)
        bucket)
    buckets;
  Alcotest.(check bool) "all gates bucketed" true (Array.for_all Fun.id seen);
  Alcotest.(check int) "depth = bucket count" (Netlist.depth net) (Array.length buckets)

let test_levelizer_invariants () =
  List.iter check_levelizer
    [
      Generate.tree ();
      Generate.chain ~length:17 ();
      Generate.example_fig2 ();
      Generate.apex2_like ();
      wide_dag 11;
    ]

let test_levelizer_cached () =
  let net = Generate.tree () in
  Alcotest.(check bool) "same array (cached)" true
    (Netlist.level_buckets net == Netlist.level_buckets net)

(* ---- Util.Instr ------------------------------------------------------------- *)

let test_instr_disabled_is_inert () =
  Util.Instr.disable ();
  Util.Instr.reset ();
  let c = Util.Instr.counter "test.counter" in
  let t = Util.Instr.timer "test.timer" in
  Util.Instr.incr c;
  Util.Instr.add c 41;
  let v = Util.Instr.time t (fun () -> 7) in
  Alcotest.(check int) "time passes value through" 7 v;
  Alcotest.(check int) "counter untouched" 0 (Util.Instr.count c);
  let s = Util.Instr.snapshot () in
  Alcotest.(check int) "no active counters" 0 (List.length s.Util.Instr.counters);
  Alcotest.(check int) "no active timers" 0 (List.length s.Util.Instr.timers)

let test_instr_enabled_counts () =
  Util.Instr.reset ();
  Util.Instr.enable ();
  Fun.protect ~finally:Util.Instr.disable (fun () ->
      let c = Util.Instr.counter "test.counter" in
      let t = Util.Instr.timer "test.timer" in
      Util.Instr.incr c;
      Util.Instr.add c 41;
      ignore (Util.Instr.time t (fun () -> Sys.opaque_identity 7));
      Alcotest.(check int) "counter" 42 (Util.Instr.count c);
      let s = Util.Instr.snapshot () in
      let timed = List.assoc "test.timer" s.Util.Instr.timers in
      Alcotest.(check int) "timer calls" 1 timed.Util.Instr.calls;
      Alcotest.(check bool) "timer nonnegative" true (timed.Util.Instr.seconds >= 0.);
      (* interning returns the same counter *)
      Util.Instr.incr (Util.Instr.counter "test.counter");
      Alcotest.(check int) "interned" 43 (Util.Instr.count c));
  Util.Instr.reset ()

(* A timed section is charged its own allocation even when a minor
   collection lands inside it: the section fills most of a fresh minor
   heap with short-lived words it drops, so its own small allocation
   (a [k]-float array, [k + 1] words) triggers the collection. *)
let test_instr_minor_collection_inside () =
  Util.Instr.reset ();
  Util.Instr.enable ();
  Fun.protect ~finally:Util.Instr.disable (fun () ->
      let t = Util.Instr.timer "test.minor_gc" in
      let heap = (Gc.get ()).Gc.minor_heap_size in
      (* Outside the section: fill the minor heap to within a few words
         of full, in small blocks that die at once. *)
      Gc.minor ();
      let before = Gc.minor_words () in
      while Gc.minor_words () -. before < float_of_int (heap - 64) do
        ignore (Sys.opaque_identity (ref 0))
      done;
      let collections = (Gc.quick_stat ()).Gc.minor_collections in
      let k = 256 in
      let own () =
        let a = Array.make k 0. in
        for i = 0 to 3 do
          ignore (Sys.opaque_identity (Array.make k (float_of_int i)))
        done;
        a
      in
      ignore (Sys.opaque_identity (Util.Instr.time t own));
      Alcotest.(check bool) "a minor collection fell inside the section" true
        ((Gc.quick_stat ()).Gc.minor_collections > collections);
      let s = Util.Instr.snapshot () in
      let w = (List.assoc "test.minor_gc" s.Util.Instr.timers).Util.Instr.minor_words in
      (* Five (k + 1)-word arrays, plus the timer's own few words. *)
      let own_words = 5 * (k + 1) in
      if w < own_words || w > own_words + 64 then
        Alcotest.failf "section charged %d minor words, its own allocation is %d" w
          own_words);
  Util.Instr.reset ()

let test_instr_ssta_counters () =
  Util.Instr.reset ();
  Util.Instr.enable ();
  Fun.protect ~finally:Util.Instr.disable (fun () ->
      let net = Generate.tree () in
      let sizes = Netlist.min_sizes net in
      ignore (Sta.Ssta.analyze ~model net ~sizes);
      ignore
        (Sta.Ssta.value_and_gradient ~model net ~sizes
           ~seed:(Sta.Ssta.mu_plus_k_sigma_seed 3.));
      let s = Util.Instr.snapshot () in
      Alcotest.(check int) "analyze count" 2
        (List.assoc "ssta.analyze" s.Util.Instr.counters);
      Alcotest.(check int) "gradient count" 1
        (List.assoc "ssta.gradient" s.Util.Instr.counters);
      Alcotest.(check bool) "max2 counted" true
        (List.assoc "clark.max2" s.Util.Instr.counters > 0);
      Alcotest.(check bool) "forward timed" true
        (List.mem_assoc "ssta.forward" s.Util.Instr.timers));
  Util.Instr.reset ()

let test_instr_json_shape () =
  Util.Instr.reset ();
  Util.Instr.enable ();
  Fun.protect ~finally:Util.Instr.disable (fun () ->
      Util.Instr.incr (Util.Instr.counter "test.json");
      ignore (Util.Instr.time (Util.Instr.timer "test.json_timer") (fun () -> ()));
      let json = Util.Instr.to_json (Util.Instr.snapshot ()) in
      let contains needle =
        let lh = String.length json and ln = String.length needle in
        let rec go i = i + ln <= lh && (String.sub json i ln = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "object" true (json.[0] = '{');
      Alcotest.(check bool) "counters key" true (contains "\"counters\"");
      Alcotest.(check bool) "timers key" true (contains "\"timers\"");
      Alcotest.(check bool) "counter entry" true (contains "\"test.json\": 1");
      Alcotest.(check bool) "timer fields" true (contains "\"calls\": 1"));
  Util.Instr.reset ()

(* ---- bit-identity of parallel and serial SSTA ------------------------------- *)

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

let nets_under_test () =
  [
    ("tree", Generate.tree ());
    ("chain", Generate.chain ~length:40 ());
    ("apex2*", Generate.apex2_like ());
    ("dag600", wide_dag 23);
  ]

let test_analyze_bit_identical () =
  List.iter
    (fun (name, net) ->
      let sizes =
        Array.mapi
          (fun i lo -> lo +. (0.37 *. float_of_int (i mod 3)))
          (Netlist.min_sizes net)
      in
      let serial = Sta.Ssta.analyze ~model net ~sizes in
      List.iter
        (fun (jobs, pool) ->
          let par = Sta.Ssta.analyze ~pool ~model net ~sizes in
          check_results_identical (Printf.sprintf "%s jobs=%d" name jobs) serial par)
        [ (2, pool2); (4, pool4) ])
    (nets_under_test ())

let test_gradient_bit_identical () =
  List.iter
    (fun (name, net) ->
      let sizes = Netlist.min_sizes net in
      let seed = Sta.Ssta.mu_plus_k_sigma_seed 3. in
      let res_s, grad_s = Sta.Ssta.value_and_gradient ~model net ~sizes ~seed in
      List.iter
        (fun (jobs, pool) ->
          let res_p, grad_p =
            Sta.Ssta.value_and_gradient ~pool ~model net ~sizes ~seed
          in
          let msg = Printf.sprintf "%s jobs=%d" name jobs in
          check_results_identical msg res_s res_p;
          check_floats_identical (msg ^ ": grad") grad_s grad_p)
        [ (2, pool2); (4, pool4) ])
    (nets_under_test ())

let prop_random_dags_bit_identical =
  QCheck.Test.make ~name:"parallel SSTA bit-identical on random netlists" ~count:12
    (QCheck.make QCheck.Gen.(pair (int_range 0 10_000) (int_range 120 700)))
    (fun (seed, n_gates) ->
      let net = wide_dag ~n_gates (seed + 1) in
      let sizes = Netlist.min_sizes net in
      let sfun = Sta.Ssta.sigma_seed in
      let res_s, grad_s = Sta.Ssta.value_and_gradient ~model net ~sizes ~seed:sfun in
      List.for_all
        (fun pool ->
          let res_p, grad_p =
            Sta.Ssta.value_and_gradient ~pool ~model net ~sizes ~seed:sfun
          in
          let same_normal (a : Statdelay.Normal.t) (b : Statdelay.Normal.t) =
            Int64.equal (bits a.Statdelay.Normal.mu) (bits b.Statdelay.Normal.mu)
            && Int64.equal (bits a.Statdelay.Normal.var) (bits b.Statdelay.Normal.var)
          in
          same_normal res_s.Sta.Ssta.circuit res_p.Sta.Ssta.circuit
          && Array.for_all2 same_normal res_s.Sta.Ssta.arrival res_p.Sta.Ssta.arrival
          && Array.for_all2
               (fun (a : float) b -> Int64.equal (bits a) (bits b))
               grad_s grad_p)
        [ pool2; pool4 ])

let test_engine_solution_bit_identical () =
  (* A full solver run drives thousands of pooled evaluations through the
     cache; the optimum must not move by a single bit. *)
  let net = wide_dag ~n_gates:220 41 in
  let serial = Sizing.Engine.solve ~model net (Sizing.Objective.Min_delay 3.) in
  let par = Sizing.Engine.solve ~pool:pool2 ~model net (Sizing.Objective.Min_delay 3.) in
  check_floats_identical "sizes" serial.Sizing.Engine.sizes par.Sizing.Engine.sizes;
  check_normal_identical "circuit" serial.Sizing.Engine.timing.Sta.Ssta.circuit
    par.Sizing.Engine.timing.Sta.Ssta.circuit

let () =
  let open Alcotest in
  run "parallel"
    [
      ( "pool",
        [
          test_case "covers all indices" `Quick test_pool_covers_all_indices;
          test_case "reuse across jobs" `Quick test_pool_reuse_many_jobs;
          test_case "size-1 inline" `Quick test_pool_size_one_runs_inline;
          test_case "small n inline" `Quick test_pool_small_n_runs_inline;
          test_case "exception propagation" `Quick test_pool_propagates_exception;
          test_case "invalid args" `Quick test_pool_invalid_args;
        ] );
      ( "levelizer",
        [
          test_case "invariants" `Quick test_levelizer_invariants;
          test_case "cached" `Quick test_levelizer_cached;
        ] );
      ( "instr",
        [
          test_case "disabled is inert" `Quick test_instr_disabled_is_inert;
          test_case "enabled counts" `Quick test_instr_enabled_counts;
          test_case "ssta counters" `Quick test_instr_ssta_counters;
          test_case "minor collection inside a section" `Quick
            test_instr_minor_collection_inside;
          test_case "json shape" `Quick test_instr_json_shape;
        ] );
      ( "bit-identity",
        [
          test_case "analyze" `Quick test_analyze_bit_identical;
          test_case "value_and_gradient" `Quick test_gradient_bit_identical;
          Seed_info.to_alcotest prop_random_dags_bit_identical;
          test_case "engine solve" `Slow test_engine_solution_bit_identical;
        ] );
    ]
