(* Tests for the timing-as-a-service daemon (lib/serve): exact JSON
   float round-trips, protocol encode/decode, the breaker state machine
   on a hand-driven clock, the admission shedding policy, the warmed-
   engine LRU, request execution (including the degradation rung), the
   in-process server (conservation law, drain semantics, quarantine),
   and a release-gated multi-client soak under fault injection whose
   fully-served answers are checked Int64-bit-identical to batch
   evaluations. *)

let model = Circuit.Sigma_model.paper_default

let netlist name =
  match Circuit.Generate.by_name name with
  | Some net -> net
  | None -> Alcotest.failf "unknown built-in circuit %S" name

let bits = Int64.bits_of_float

(* ---- Json -------------------------------------------------------------------- *)

(* The whole protocol stands on this: every float survives the wire
   bit-for-bit, so string comparison of rendered results is Int64
   bit-identity. *)
let test_json_float_bits () =
  let cases =
    [
      0.1;
      1. /. 3.;
      Float.pi;
      7.715102599625038;
      1e-308;
      4.9e-324 (* smallest subnormal *);
      1e15 -. 0.5;
      123456789.;
      -42.;
      0.;
    ]
  in
  List.iter
    (fun f ->
      let s = Serve.Json.number_to_string f in
      match float_of_string_opt s with
      | Some f' when Int64.equal (bits f) (bits f') -> ()
      | Some f' -> Alcotest.failf "%h rendered %S parsed back %h" f s f'
      | None -> Alcotest.failf "%h rendered unparseable %S" f s)
    cases;
  (* Integral fast path renders without exponent or fraction. *)
  Alcotest.(check string) "integral" "7" (Serve.Json.number_to_string 7.);
  (* Round trip through a full document. *)
  let doc = Serve.Json.Obj [ ("xs", Serve.Json.List (List.map (fun f -> Serve.Json.Num f) cases)) ] in
  match Serve.Json.parse (Serve.Json.to_string doc) with
  | Error msg -> Alcotest.failf "cannot reparse own rendering: %s" msg
  | Ok doc' ->
      Alcotest.(check string)
        "document round-trip" (Serve.Json.to_string doc)
        (Serve.Json.to_string doc')

let test_json_values_and_errors () =
  let doc =
    Serve.Json.Obj
      [
        ("s", Serve.Json.Str "quote \" backslash \\ newline \n tab \t");
        ("b", Serve.Json.Bool true);
        ("n", Serve.Json.Null);
        ("l", Serve.Json.List [ Serve.Json.Num 1.; Serve.Json.Str "two" ]);
        ("o", Serve.Json.Obj [ ("nested", Serve.Json.Bool false) ]);
      ]
  in
  (match Serve.Json.parse (Serve.Json.to_string doc) with
  | Ok doc' when Serve.Json.to_string doc = Serve.Json.to_string doc' -> ()
  | Ok _ -> Alcotest.fail "string/escape round-trip changed the document"
  | Error msg -> Alcotest.failf "cannot parse own rendering: %s" msg);
  List.iter
    (fun s ->
      match Serve.Json.parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "parsed garbage %S" s)
    [ ""; "{"; "[1,"; "{\"a\":}"; "tru"; "1 2" (* trailing garbage *); "\"unterminated" ]

(* Every parse error names the byte offset where it was found. *)
let test_json_positioned_errors () =
  List.iter
    (fun (text, want) ->
      match Serve.Json.parse text with
      | Ok _ -> Alcotest.failf "parsed garbage %S" text
      | Error msg ->
          Alcotest.(check string) (Printf.sprintf "error for %S" text) want msg)
    [
      ("", "unexpected end of input at offset 0");
      ("[1,", "unexpected end of input at offset 3");
      ("\"abc", "unterminated string opened at offset 0");
      ("{\"k\":\"ab", "unterminated string opened at offset 5");
      ("\"a\\q\"", "bad escape \\q at offset 2");
      ("\"a\\", "unterminated escape at offset 2");
      ("\"\\u12", "truncated \\u escape at offset 1");
      ("\"\\u12zz\"", "bad \\u escape \"12zz\" at offset 1");
      ("tru", "bad literal at offset 0");
      ("[1 2]", "expected , or ] at offset 3");
      ("1 2", "trailing garbage at offset 2");
    ]

(* Nesting is capped: a hostile line comes back as a typed error naming
   the depth and the offset, never a stack overflow, and the request
   decoder never raises. *)
let test_json_depth_cap () =
  let deep = 1_000_000 in
  let line = "{\"op\":\"analyze\",\"id\":" ^ String.make deep '[' in
  (* The object is one level, so the 512th '[' (offset 21 + 511) is the
     first one too deep. *)
  let want = Printf.sprintf "nesting deeper than %d at offset %d" Serve.Json.max_depth 532 in
  (match Serve.Protocol.decode_request line with
  | Error msg -> Alcotest.(check string) "deep request" want msg
  | Ok _ -> Alcotest.fail "decoded a 10^6-deep request");
  (match Serve.Json.parse (String.make deep '[' ^ String.make deep ']') with
  | Error msg ->
      Alcotest.(check string) "deep array"
        (Printf.sprintf "nesting deeper than %d at offset %d" Serve.Json.max_depth 512)
        msg
  | Ok _ -> Alcotest.fail "parsed a 10^6-deep array");
  (* Exactly at the cap still parses. *)
  let at_cap = String.make Serve.Json.max_depth '[' ^ String.make Serve.Json.max_depth ']' in
  match Serve.Json.parse at_cap with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "%d-deep array rejected: %s" Serve.Json.max_depth msg

(* ---- float printer vs the three-sprintf oracle ---------------------------------- *)

let check_printer f =
  let got = Serve.Json.number_to_string f and want = Json_oracle.number_to_string f in
  if not (String.equal got want) then
    Alcotest.failf "%h (bits %016Lx): printed %S, oracle %S" f (Int64.bits_of_float f) got
      want

(* [k] ulps away from [f], upward for k > 0. *)
let rec ulps f k =
  if k = 0 then f else if k > 0 then ulps (Float.succ f) (k - 1) else ulps (Float.pred f) (k + 1)

(* Every binary exponent, subnormal ones included: each power of two and
   its +-1..4-ulp neighbours, both signs. *)
let test_printer_binary_exponents () =
  for k = -1074 to 1023 do
    let p = Float.ldexp 1. k in
    for d = -4 to 4 do
      let f = ulps p d in
      if Float.is_finite f then begin
        check_printer f;
        check_printer (-.f)
      end
    done
  done

(* The powers of two whose 16-digit rounding lies outside their
   half-width lower rounding interval while the 16-digit decimal above
   parses back: the rule gives them 17 digits where a shortest-digit
   printer would give 16. *)
let test_printer_asymmetric_powers () =
  let sig_digits s =
    let mant = match String.index_opt s 'e' with Some i -> String.sub s 0 i | None -> s in
    let ds = String.concat "" (String.split_on_char '.' mant) in
    let ds = if ds.[0] = '-' then String.sub ds 1 (String.length ds - 1) else ds in
    let i = ref 0 in
    while ds.[!i] = '0' do
      incr i
    done;
    String.length ds - !i
  in
  let found = ref [] in
  (* From the second normal binade on, the interval below is half as wide. *)
  for k = -1021 to 1023 do
    let p = Float.ldexp 1. k in
    let s = Serve.Json.number_to_string p in
    if sig_digits s = 17 then begin
      (* %.16e is the 17-digit rounding; its first 16 digits plus one is
         the least 16-digit decimal above p. *)
      let e17 = Printf.sprintf "%.16e" p in
      let first16 = int_of_string (String.make 1 e17.[0] ^ String.sub e17 2 15) in
      let exp = int_of_string (String.sub e17 19 (String.length e17 - 19)) in
      let above = Printf.sprintf "%de%d" (first16 + 1) (exp - 15) in
      if float_of_string above = p then found := k :: !found
    end
  done;
  Alcotest.(check int) "powers of two that keep 17 digits" 46 (List.length !found);
  Alcotest.(check bool) "2^-957 among them" true (List.mem (-957) !found);
  Alcotest.(check string) "2^-957" "8.2090736025967525e-289"
    (Serve.Json.number_to_string (Float.ldexp 1. (-957)))

let test_printer_edges () =
  let subnormal_min = Int64.float_of_bits 1L
  and subnormal_max = Int64.float_of_bits 0xF_FFFF_FFFF_FFFFL in
  List.iter
    (fun f ->
      check_printer f;
      check_printer (-.f))
    [
      0.;
      subnormal_min;
      subnormal_max;
      Float.min_float;
      Float.max_float;
      (* the integral fast path's edges *)
      1e15 -. 0.5;
      Float.pred 1e15;
      1e15;
      Float.succ 1e15;
      Float.ldexp 1. 53;
      (* exact ties at 16 and 17 digits *)
      1e15 +. 0.5;
      1e15 +. 0.25;
      1e15 +. 0.75;
      (* %g layout switches *)
      1e-4;
      Float.pred 1e-4;
      1e-5;
      123456789012345.6;
      1e16;
      1e17;
      1e21;
      0.1;
      1. /. 3.;
      Float.pi;
      Float.nan;
      Float.infinity;
    ];
  List.iter
    (fun (f, want) ->
      Alcotest.(check string) (Printf.sprintf "%h" f) want (Serve.Json.number_to_string f))
    [
      (-0., "-0");
      (0., "0");
      (7., "7");
      (1e15, "1e+15");
      (Float.ldexp 1. 53, "9007199254740992");
      (1e-5, "1e-05");
      (Int64.float_of_bits 1L, "4.94065645841247e-324");
      (0.1, "0.1");
      (Float.nan, "\"nan\"");
      (Float.neg_infinity, "\"-inf\"");
    ]

(* Keyed random bit patterns: 10^7 in the release profile, 10^5 in dev. *)
let test_printer_random_bits () =
  let n = if Release_profile.kernels_inlined () then 10_000_000 else 100_000 in
  let seed = Lazy.force Seed_info.seed in
  let rand = Random.State.make [| seed; 0x6a73 |] in
  for _ = 1 to n do
    let f = Int64.float_of_bits (Random.State.bits64 rand) in
    let got = Serve.Json.number_to_string f and want = Json_oracle.number_to_string f in
    if not (String.equal got want) then
      Alcotest.failf "%h (bits %016Lx): printed %S, oracle %S\n  reproduce: %s" f
        (Int64.bits_of_float f) got want (Seed_info.repro_command ())
  done

(* ---- Protocol ----------------------------------------------------------------- *)

let sample_requests =
  [
    {
      Serve.Protocol.id = Serve.Json.Num 1.;
      circuit = Some "tree";
      deadline_ms = None;
      max_evals = None;
      body = Serve.Protocol.Analyze { sizes = Serve.Protocol.Committed };
    };
    {
      Serve.Protocol.id = Serve.Json.Str "q7";
      circuit = Some "fig2";
      deadline_ms = Some 12.5;
      max_evals = Some 400;
      body = Serve.Protocol.Analyze { sizes = Serve.Protocol.Explicit [| 1.; 2.5; 1.25; 3. |] };
    };
    {
      Serve.Protocol.id = Serve.Json.Num 2.;
      circuit = None;
      deadline_ms = None;
      max_evals = None;
      body = Serve.Protocol.Whatif { deltas = [| (0, 2.0); (3, 1.5) |] };
    };
    {
      Serve.Protocol.id = Serve.Json.Num 3.;
      circuit = Some "tree";
      deadline_ms = None;
      max_evals = None;
      body =
        Serve.Protocol.Gradient
          { sizes = Serve.Protocol.Uniform 1.5; seed = Serve.Protocol.Seed_mu_k_sigma 3. };
    };
    {
      Serve.Protocol.id = Serve.Json.Num 4.;
      circuit = Some "fig2";
      deadline_ms = Some 500.;
      max_evals = Some 2000;
      body =
        Serve.Protocol.Size
          { objective = Serve.Protocol.Min_delay 3.; recovery = false };
    };
    {
      Serve.Protocol.id = Serve.Json.Null;
      circuit = None;
      deadline_ms = None;
      max_evals = None;
      body = Serve.Protocol.Stats;
    };
    {
      Serve.Protocol.id = Serve.Json.Num 5.;
      circuit = None;
      deadline_ms = None;
      max_evals = None;
      body = Serve.Protocol.Health;
    };
  ]

let test_request_roundtrip () =
  List.iter
    (fun r ->
      let line = Serve.Protocol.encode_request r in
      match Serve.Protocol.decode_request line with
      | Error msg -> Alcotest.failf "cannot decode %S: %s" line msg
      | Ok r' ->
          Alcotest.(check string)
            (Printf.sprintf "round-trip of %s" line)
            line
            (Serve.Protocol.encode_request r'))
    sample_requests

let test_request_rejects_garbage () =
  List.iter
    (fun line ->
      match Serve.Protocol.decode_request line with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "decoded garbage request %S" line)
    [
      "";
      "{}";
      "{\"op\":\"warp\"}";
      "{\"op\":\"whatif\"}";
      "{\"op\":\"whatif\",\"deltas\":[[1]]}";
      "{\"op\":\"size\"}";
      "{\"op\":\"size\",\"objective\":{\"kind\":\"min-sigma\"}}";
      "{\"op\":\"analyze\",\"sizes\":\"big\"}";
    ]

let sample_responses =
  [
    {
      Serve.Protocol.id = Serve.Json.Num 1.;
      kind = "analyze";
      payload =
        Serve.Protocol.Analysis
          { mu = 7.715102599625038; var = 0.7300819479831953; area = 7.; n_gates = 7 };
    };
    {
      Serve.Protocol.id = Serve.Json.Num 2.;
      kind = "analyze";
      payload = Serve.Protocol.Degraded { typical = 6.970000000000001; area = 7. };
    };
    {
      Serve.Protocol.id = Serve.Json.Num 3.;
      kind = "gradient";
      payload =
        Serve.Protocol.Gradient_result
          { value = 10.278447588472376; gradient = [| -0.5; 0.25; 1. /. 3. |] };
    };
    {
      Serve.Protocol.id = Serve.Json.Num 4.;
      kind = "size";
      payload =
        Serve.Protocol.Sized
          {
            mu = 5.5;
            sigma = 0.5;
            area = 12.;
            sizes = [| 3.; 3.; 3.; 3. |];
            evaluations = 120;
            rungs = [ "restart-jittered" ];
          };
    };
    {
      Serve.Protocol.id = Serve.Json.Num 5.;
      kind = "health";
      payload =
        Serve.Protocol.Health_result
          { status = "ok"; uptime_seconds = 1.5; resident = [ "tree" ] };
    };
    {
      Serve.Protocol.id = Serve.Json.Num 6.;
      kind = "size";
      payload =
        Serve.Protocol.Error
          { code = Serve.Protocol.Quarantined; message = "circuit quarantined" };
    };
  ]

(* The reply as the tree-building encoder rendered it, through the old
   printer: what the wire carried before replies were written straight
   into a buffer. *)
let oracle_reply (r : Serve.Protocol.response) =
  let open Serve.Json in
  let fields =
    match r.payload with
    | Serve.Protocol.Error { code; message } ->
        [
          ("ok", Bool false);
          ("kind", Str r.kind);
          ( "error",
            Obj
              [
                ("code", Str (Serve.Protocol.error_code_name code));
                ("message", Str message);
              ] );
        ]
    | p ->
        [
          ("ok", Bool true);
          ("kind", Str r.kind);
          ("degraded", Bool (match p with Serve.Protocol.Degraded _ -> true | _ -> false));
          ("result", Serve.Protocol.result_json p);
        ]
  in
  Json_oracle.to_string (Obj (("id", r.id) :: fields))

let test_response_roundtrip () =
  List.iter
    (fun r ->
      let line = Serve.Protocol.encode_response r in
      Alcotest.(check string) "byte-equal to the tree encoder" (oracle_reply r) line;
      match Serve.Protocol.decode_response line with
      | Error msg -> Alcotest.failf "cannot decode %S: %s" line msg
      | Ok r' ->
          Alcotest.(check string)
            (Printf.sprintf "round-trip of %s" line)
            line
            (Serve.Protocol.encode_response r'))
    sample_responses

(* Every prefix of a valid request or reply decodes to a value or an
   [Error]; none raises. *)
let test_truncated_lines_never_raise () =
  let lines =
    List.map Serve.Protocol.encode_request sample_requests
    @ List.map Serve.Protocol.encode_response sample_responses
  in
  List.iter
    (fun line ->
      for len = 0 to String.length line do
        let prefix = String.sub line 0 len in
        match
          (Serve.Protocol.decode_request prefix, Serve.Protocol.decode_response prefix)
        with
        | _ -> ()
        | exception e ->
            Alcotest.failf "prefix %S raised %s" prefix (Printexc.to_string e)
      done)
    lines

let test_shed_class_order () =
  let cls b = Serve.Protocol.shed_class b in
  let analyze = Serve.Protocol.Analyze { sizes = Serve.Protocol.Committed } in
  let whatif = Serve.Protocol.Whatif { deltas = [||] } in
  let gradient =
    Serve.Protocol.Gradient
      { sizes = Serve.Protocol.Committed; seed = Serve.Protocol.Seed_mu }
  in
  let size =
    Serve.Protocol.Size
      { objective = Serve.Protocol.Min_delay 0.; recovery = true }
  in
  Alcotest.(check bool) "size sheds before gradient" true (cls size > cls gradient);
  Alcotest.(check bool) "gradient sheds before analyze" true
    (cls gradient > cls analyze);
  Alcotest.(check int) "whatif rides with analyze" (cls analyze) (cls whatif);
  Alcotest.(check bool) "control plane never sheds" true
    (cls Serve.Protocol.Stats < 0 && cls Serve.Protocol.Health < 0)

let test_error_code_names () =
  List.iter
    (fun c ->
      match Serve.Protocol.error_code_of_name (Serve.Protocol.error_code_name c) with
      | Some c' when c = c' -> ()
      | _ ->
          Alcotest.failf "error code %S does not round-trip"
            (Serve.Protocol.error_code_name c))
    [
      Serve.Protocol.Bad_request;
      Serve.Protocol.Unknown_circuit;
      Serve.Protocol.Overloaded;
      Serve.Protocol.Timeout;
      Serve.Protocol.Quarantined;
      Serve.Protocol.Shutting_down;
      Serve.Protocol.Breakdown;
      Serve.Protocol.Unconverged;
      Serve.Protocol.Internal;
    ]

(* ---- Breaker ------------------------------------------------------------------ *)

let test_breaker_state_machine () =
  let clock = ref 0 in
  let b =
    Serve.Breaker.create
      ~now:(fun () -> !clock)
      { Serve.Breaker.threshold = 2; cooldown_s = 1.0 }
  in
  Alcotest.(check bool) "fresh closed" true (Serve.Breaker.state b = Serve.Breaker.Closed);
  Alcotest.(check bool) "closed admits" true (Serve.Breaker.admit b = Serve.Breaker.Allow);
  Serve.Breaker.failure b;
  (* One failure then a success: the run resets, no trip. *)
  Serve.Breaker.success b;
  Serve.Breaker.failure b;
  Alcotest.(check bool) "still closed after interrupted run" true
    (Serve.Breaker.state b = Serve.Breaker.Closed);
  Serve.Breaker.failure b;
  Alcotest.(check bool) "tripped at threshold" true
    (Serve.Breaker.state b = Serve.Breaker.Open);
  Alcotest.(check int) "one trip" 1 (Serve.Breaker.trips b);
  Alcotest.(check bool) "open rejects" true (Serve.Breaker.admit b = Serve.Breaker.Reject);
  (* Cooldown elapses: exactly one trial probe. *)
  clock := 1_000_000_001;
  Alcotest.(check bool) "cooldown over: trial" true
    (Serve.Breaker.admit b = Serve.Breaker.Trial);
  Alcotest.(check bool) "half-open" true
    (Serve.Breaker.state b = Serve.Breaker.Half_open);
  Alcotest.(check bool) "second probe rejected while trial in flight" true
    (Serve.Breaker.admit b = Serve.Breaker.Reject);
  (* Failed trial: re-open with a fresh cooldown, counted as a trip. *)
  Serve.Breaker.failure b;
  Alcotest.(check bool) "re-opened" true (Serve.Breaker.state b = Serve.Breaker.Open);
  Alcotest.(check int) "two trips" 2 (Serve.Breaker.trips b);
  Alcotest.(check bool) "fresh cooldown holds" true
    (Serve.Breaker.admit b = Serve.Breaker.Reject);
  clock := 2_000_000_002;
  Alcotest.(check bool) "second trial" true
    (Serve.Breaker.admit b = Serve.Breaker.Trial);
  (* Successful trial re-closes and resets the failure run. *)
  Serve.Breaker.success b;
  Alcotest.(check bool) "re-closed" true (Serve.Breaker.state b = Serve.Breaker.Closed);
  Serve.Breaker.failure b;
  Alcotest.(check bool) "run restarted from zero" true
    (Serve.Breaker.state b = Serve.Breaker.Closed)

(* ---- Admission ---------------------------------------------------------------- *)

let test_admission_shedding () =
  let q = Serve.Admission.create ~capacity:2 in
  (* Fill with two solves. *)
  Alcotest.(check bool) "first enqueued" true
    (Serve.Admission.submit q ~cls:2 "size-a" = Serve.Admission.Enqueued);
  Alcotest.(check bool) "second enqueued" true
    (Serve.Admission.submit q ~cls:2 "size-b" = Serve.Admission.Enqueued);
  Alcotest.(check int) "queue full" 2 (Serve.Admission.length q);
  (* A third solve is not strictly more important: it sheds itself. *)
  Alcotest.(check bool) "equal class sheds self" true
    (Serve.Admission.submit q ~cls:2 "size-c" = Serve.Admission.Shed_self);
  (* An analysis evicts the FIFO-oldest solve. *)
  (match Serve.Admission.submit q ~cls:0 "analyze-a" with
  | Serve.Admission.Shed_victim "size-a" -> ()
  | Serve.Admission.Shed_victim v -> Alcotest.failf "shed %S, want oldest solve" v
  | _ -> Alcotest.fail "analysis arrival did not evict a solve");
  (* A second analysis evicts the remaining solve; a third sheds itself. *)
  (match Serve.Admission.submit q ~cls:0 "analyze-b" with
  | Serve.Admission.Shed_victim "size-b" -> ()
  | _ -> Alcotest.fail "second analysis did not evict the remaining solve");
  Alcotest.(check bool) "all-analysis queue sheds arrival" true
    (Serve.Admission.submit q ~cls:0 "analyze-c" = Serve.Admission.Shed_self);
  (* Control-plane entries are capacity-exempt and uncounted. *)
  Alcotest.(check bool) "stats always enqueues" true
    (Serve.Admission.submit q ~cls:(-1) "stats" = Serve.Admission.Enqueued);
  Alcotest.(check int) "control plane uncounted" 2 (Serve.Admission.length q);
  (* FIFO drain order, control plane interleaved where it arrived. *)
  let order = Serve.Admission.drain q in
  Alcotest.(check (list string)) "fifo order"
    [ "analyze-a"; "analyze-b"; "stats" ]
    order;
  Alcotest.(check bool) "empty after drain" true (Serve.Admission.is_empty q)

(* ---- Registry ----------------------------------------------------------------- *)

let test_registry_lru () =
  let r = Serve.Registry.create ~capacity:1 () in
  Serve.Registry.register r ~name:"tree" ~model (netlist "tree");
  Serve.Registry.register r ~name:"fig2" ~model (netlist "fig2");
  (match
     try
       Serve.Registry.register r ~name:"tree" ~model (netlist "tree");
       `Registered
     with Invalid_argument _ -> `Rejected
   with
  | `Rejected -> ()
  | `Registered -> Alcotest.fail "duplicate registration accepted");
  Alcotest.(check int) "nothing warm yet" 0 (Serve.Registry.warm_count r);
  let tree = Option.get (Serve.Registry.find r "tree") in
  let fig2 = Option.get (Serve.Registry.find r "fig2") in
  let tgt = Serve.Registry.target r tree in
  Alcotest.(check (list string)) "tree resident" [ "tree" ] (Serve.Registry.resident r);
  (* Commit new sizes on the warmed target (what a converged size request
     does), then force an LRU eviction by warming the other circuit. *)
  let committed =
    Array.mapi
      (fun i _ -> Float.min 2.0 (Circuit.Netlist.max_sizes tgt.Serve.Exec.net).(i))
      tgt.Serve.Exec.sizes
  in
  tgt.Serve.Exec.sizes <- committed;
  ignore (Serve.Registry.target r fig2);
  Alcotest.(check (list string)) "fig2 evicted tree" [ "fig2" ]
    (Serve.Registry.resident r);
  Alcotest.(check int) "one eviction" 1 (Serve.Registry.evictions r);
  (* Committed sizes survive the eviction; only the warm engine is lost. *)
  let tgt' = Serve.Registry.target r tree in
  Alcotest.(check int) "two evictions after re-warm" 2 (Serve.Registry.evictions r);
  Array.iteri
    (fun i s ->
      if not (Int64.equal (bits s) (bits committed.(i))) then
        Alcotest.failf "committed size %d lost across eviction: %h <> %h" i s
          committed.(i))
    tgt'.Serve.Exec.sizes

(* ---- Exec --------------------------------------------------------------------- *)

let expired_budget () =
  let t = ref 0 in
  Util.Guard.budget
    ~now:(fun () ->
      incr t;
      !t)
    ~deadline:0. ()

let render p = Serve.Json.to_string (Serve.Protocol.result_json p)

let batch_analysis net ~sizes =
  let arena = Sta.Arena.create net in
  let r = Sta.Ssta.analyze ~arena ~model net ~sizes in
  Serve.Protocol.Analysis
    {
      mu = Statdelay.Normal.mu r.Sta.Ssta.circuit;
      var = Statdelay.Normal.var r.Sta.Ssta.circuit;
      area = Circuit.Netlist.area net ~sizes;
      n_gates = Circuit.Netlist.n_gates net;
    }

let test_exec_analyze_bit_identity () =
  let net = netlist "tree" in
  let target = Serve.Exec.create ~model net in
  let sizes = Array.map (fun s -> s +. 0.5) (Circuit.Netlist.min_sizes net) in
  let payload =
    Serve.Exec.exec target
      (Serve.Protocol.Analyze { sizes = Serve.Protocol.Explicit sizes })
  in
  Alcotest.(check string) "served equals batch, bit for bit"
    (render (batch_analysis net ~sizes))
    (render payload);
  (* Committed spec answers at the target's committed (all-min) sizes. *)
  let payload' =
    Serve.Exec.exec target (Serve.Protocol.Analyze { sizes = Serve.Protocol.Committed })
  in
  Alcotest.(check string) "committed spec"
    (render (batch_analysis net ~sizes:(Circuit.Netlist.min_sizes net)))
    (render payload')

(* Serving a circuit over 256 gates must not empty the minor heap: in
   OCaml 5 that is a stop-the-world collection which waits for every
   other domain, among them a client spinning on its reply, so on a host
   that gives the process one CPU each forced collection costs a
   scheduler slice.  [Array.init] over records did this twice per result
   snapshot.  apex1* has 982 gates.  Collections the loop's own minor
   allocation explains are allowed: a dev build boxes floats in the
   sweeps and fills the minor heap a few times. *)
let test_exec_no_forced_minor_collection () =
  let net = netlist "apex1" in
  let target = Serve.Exec.create ~model net in
  let sizes k =
    Array.map (fun s -> s +. (0.1 *. float_of_int k)) (Circuit.Netlist.min_sizes net)
  in
  let analyze k =
    Serve.Exec.exec target (Serve.Protocol.Analyze { sizes = Serve.Protocol.Explicit (sizes k) })
  in
  let gradient () =
    Serve.Exec.exec target
      (Serve.Protocol.Gradient
         { sizes = Serve.Protocol.Committed; seed = Serve.Protocol.Seed_mu_k_sigma 3. })
  in
  ignore (analyze 0);
  ignore (gradient ());
  let minors () = (Gc.quick_stat ()).Gc.minor_collections in
  Gc.minor ();
  let m0 = minors () and w0 = Gc.minor_words () in
  let last = ref (analyze 0) in
  for k = 1 to 4 do
    last := analyze k;
    ignore (Serve.Exec.exec target (Serve.Protocol.Whatif { deltas = [| (k, 2.0) |] }));
    ignore (gradient ())
  done;
  let filled = int_of_float (Gc.minor_words () -. w0) / (Gc.get ()).Gc.minor_heap_size in
  let collections = minors () - m0 in
  if collections > filled + 1 then
    Alcotest.failf "%d minor collections for %d minor heaps of allocation" collections filled;
  Alcotest.(check string) "served equals batch, bit for bit"
    (render (batch_analysis net ~sizes:(sizes 4)))
    (render !last)

(* The reply a sizing loop asks for most: apex1*'s mu + 3 sigma gradient
   at the committed sizes, one float per gate, byte-equal to what the
   old encoder sent. *)
let test_exec_gradient_reply_bytes () =
  let net = netlist "apex1" in
  let target = Serve.Exec.create ~model net in
  let payload =
    Serve.Exec.exec target
      (Serve.Protocol.Gradient
         { sizes = Serve.Protocol.Committed; seed = Serve.Protocol.Seed_mu_k_sigma 3. })
  in
  (match payload with
  | Serve.Protocol.Gradient_result { gradient; _ } ->
      Alcotest.(check int) "one entry per gate" (Circuit.Netlist.n_gates net)
        (Array.length gradient)
  | p -> Alcotest.failf "gradient answered %s" (render p));
  let r = { Serve.Protocol.id = Serve.Json.Num 1.; kind = "gradient"; payload } in
  let line = Serve.Protocol.encode_response r in
  Printf.printf "apex1* gradient reply: %d bytes\n" (String.length line);
  Alcotest.(check string) "reply bytes" (oracle_reply r) line;
  Alcotest.(check bool) "a whole gradient" true (String.length line > 20_000)

let test_exec_degraded_and_timeout () =
  let net = netlist "tree" in
  let target = Serve.Exec.create ~model net in
  let sizes = Circuit.Netlist.min_sizes net in
  (match
     Serve.Exec.exec ~budget:(expired_budget ()) target
       (Serve.Protocol.Analyze { sizes = Serve.Protocol.Explicit sizes })
   with
  | Serve.Protocol.Degraded { typical; area } ->
      let det = Sta.Dsta.analyze net ~sizes in
      Alcotest.(check bool) "typical is the deterministic sweep, bit for bit" true
        (Int64.equal (bits typical) (bits det.Sta.Dsta.circuit));
      Alcotest.(check bool) "area carried" true
        (Int64.equal (bits area) (bits (Circuit.Netlist.area net ~sizes)))
  | p -> Alcotest.failf "expired analyze answered %s, want degraded" (render p));
  (match
     Serve.Exec.exec ~budget:(expired_budget ()) target
       (Serve.Protocol.Gradient
          { sizes = Serve.Protocol.Committed; seed = Serve.Protocol.Seed_mu })
   with
  | Serve.Protocol.Error { code = Serve.Protocol.Timeout; _ } -> ()
  | p -> Alcotest.failf "expired gradient answered %s, want timeout" (render p));
  match
    Serve.Exec.exec ~budget:(expired_budget ()) target
      (Serve.Protocol.Size
         { objective = Serve.Protocol.Min_delay 0.; recovery = true })
  with
  | Serve.Protocol.Error { code = Serve.Protocol.Timeout; _ } -> ()
  | p -> Alcotest.failf "expired size answered %s, want timeout" (render p)

let test_exec_bad_requests () =
  let net = netlist "tree" in
  let target = Serve.Exec.create ~model net in
  (match
     Serve.Exec.exec target (Serve.Protocol.Whatif { deltas = [| (99, 2.0) |] })
   with
  | Serve.Protocol.Error { code = Serve.Protocol.Bad_request; _ } -> ()
  | p -> Alcotest.failf "out-of-range whatif answered %s" (render p));
  (match
     Serve.Exec.exec target
       (Serve.Protocol.Analyze { sizes = Serve.Protocol.Uniform 0.25 })
   with
  | Serve.Protocol.Error { code = Serve.Protocol.Bad_request; _ } -> ()
  | p -> Alcotest.failf "below-box uniform answered %s" (render p));
  match
    Serve.Exec.exec target
      (Serve.Protocol.Analyze
         { sizes = Serve.Protocol.Explicit [| 1.; 2. |] (* wrong length *) })
  with
  | Serve.Protocol.Error { code = Serve.Protocol.Bad_request; _ } -> ()
  | p -> Alcotest.failf "wrong-length sizes answered %s" (render p)

(* A what-if applies its deltas in the target's scratch and validates
   only them: the answer must still be the batch analysis at the
   committed sizes plus the deltas, a later delta of a gate overrides an
   earlier one, an invalid delta is refused with [check_sizes]' message
   for the lowest offending gate, and no request leaks into the next. *)
let test_exec_whatif_deltas () =
  let net = netlist "apex2" in
  let target = Serve.Exec.create ~model net in
  let with_deltas base deltas =
    let sizes = Array.copy base in
    Array.iter (fun (g, s) -> sizes.(g) <- s) deltas;
    sizes
  in
  let whatif deltas = Serve.Exec.exec target (Serve.Protocol.Whatif { deltas }) in
  let expect_batch msg deltas =
    Alcotest.(check string) msg
      (render (batch_analysis net ~sizes:(with_deltas target.Serve.Exec.sizes deltas)))
      (render (whatif deltas))
  in
  expect_batch "two deltas" [| (3, 2.0); (40, 1.5) |];
  expect_batch "later delta wins" [| (7, 0.5); (7, 2.5) |];
  let refused deltas =
    let want =
      match Circuit.Netlist.check_sizes net (with_deltas target.Serve.Exec.sizes deltas) with
      | () -> Alcotest.fail "test deltas are valid"
      | exception Invalid_argument m -> m
    in
    match whatif deltas with
    | Serve.Protocol.Error { code = Serve.Protocol.Bad_request; message } ->
        Alcotest.(check string) "check_sizes' message" want message
    | p -> Alcotest.failf "invalid what-if answered %s" (render p)
  in
  refused [| (50, 9.0); (12, 0.5); (30, 2.0) |];
  refused [| (20, 2.0); (20, 0.25) |];
  expect_batch "nothing leaked from the refused ones" [| (50, 1.25) |];
  (* A replaced committed array is picked up by the next what-if. *)
  target.Serve.Exec.sizes <- Array.make (Circuit.Netlist.n_gates net) 1.5;
  expect_batch "new committed sizes" [| (12, 2.0) |]

(* A warm what-if costs O(deltas) words plus its reply: no n-sized copy
   of the committed sizes, no per-gate snapshot, no allocation per
   re-evaluated gate.  Release only: a dev build boxes the sweep kernels'
   floats. *)
let test_exec_whatif_words () =
  if not (Release_profile.kernels_inlined ()) then Alcotest.skip ();
  let net =
    Circuit.Generate.random_dag
      {
        Circuit.Generate.default_spec with
        n_gates = 6_000;
        n_pis = 75;
        target_depth = 24;
        seed = 3;
      }
  in
  let n = Circuit.Netlist.n_gates net in
  let target = Serve.Exec.create ~model net in
  let rng = Util.Rng.keyed 9 ~key:0 in
  let request k =
    Serve.Protocol.Whatif
      {
        deltas =
          Array.init k (fun _ ->
              (Util.Rng.int rng n, 1. +. Float.round (4. *. Util.Rng.float rng) /. 2.));
      }
  in
  ignore (Serve.Exec.exec target (request 4));
  let worst = ref 0. in
  for k = 1 to 8 do
    for _ = 1 to 3 do
      let body = request k in
      let m0 = Gc.minor_words () and _, p0, j0 = Gc.counters () in
      ignore (Sys.opaque_identity (Serve.Exec.exec target body));
      let m1 = Gc.minor_words () and _, p1, j1 = Gc.counters () in
      let words = m1 -. m0 +. (j1 -. j0) -. (p1 -. p0) in
      worst := Float.max !worst (words -. (16. *. float_of_int k));
      if words > 128. +. (16. *. float_of_int k) then
        Alcotest.failf "a %d-delta what-if on %d gates allocated %.0f words" k n words
    done
  done;
  Printf.printf "worst what-if: %.0f words beyond 16 per delta\n" !worst

let test_exec_size_commits () =
  let net = netlist "fig2" in
  let target = Serve.Exec.create ~model net in
  match
    Serve.Exec.exec target
      (Serve.Protocol.Size
         { objective = Serve.Protocol.Min_delay 3.; recovery = true })
  with
  | Serve.Protocol.Sized { sizes; _ } ->
      Array.iteri
        (fun i s ->
          if not (Int64.equal (bits s) (bits target.Serve.Exec.sizes.(i))) then
            Alcotest.failf "size %d not committed: %h <> %h" i
              target.Serve.Exec.sizes.(i) s)
        sizes;
      (* A Committed analyze now answers at the solution point. *)
      let payload =
        Serve.Exec.exec target
          (Serve.Protocol.Analyze { sizes = Serve.Protocol.Committed })
      in
      Alcotest.(check string) "committed view moved to the solution"
        (render (batch_analysis net ~sizes))
        (render payload)
  | p -> Alcotest.failf "fig2 min-delay solve answered %s" (render p)

(* ---- Server ------------------------------------------------------------------- *)

(* A thread-safe reply collector: replies may arrive from the executor
   thread or synchronously from submit_line. *)
let collector () =
  let lock = Mutex.create () in
  let lines = ref [] in
  let reply line =
    Mutex.lock lock;
    lines := line :: !lines;
    Mutex.unlock lock
  in
  let all () =
    Mutex.lock lock;
    let r = List.rev !lines in
    Mutex.unlock lock;
    r
  in
  (reply, all)

let decode line =
  match Serve.Protocol.decode_response line with
  | Ok r -> r
  | Error msg -> Alcotest.failf "undecodable reply %S: %s" line msg

let req ?id ?circuit ?deadline_ms ?max_evals body =
  Serve.Protocol.encode_request
    {
      Serve.Protocol.id =
        (match id with None -> Serve.Json.Null | Some i -> Serve.Json.Num (float_of_int i));
      circuit;
      deadline_ms;
      max_evals;
      body;
    }

let conservation_holds t =
  let submitted, served, degraded, shed, refused = Serve.Server.counters t in
  if submitted <> served + degraded + shed + refused then
    Alcotest.failf "conservation violated: %d <> %d + %d + %d + %d" submitted
      served degraded shed refused

(* One of each request kind through a running server; every reply typed,
   conservation exact, the analyze answer bit-identical to batch. *)
let test_server_serves_all_kinds () =
  let t = Serve.Server.create () in
  Serve.Server.add_circuit t ~name:"tree" ~model (netlist "tree");
  let reply, all = collector () in
  Serve.Server.start t;
  let submit = Serve.Server.submit_line t ~reply in
  submit (req ~id:1 (Serve.Protocol.Health));
  submit (req ~id:2 ~circuit:"tree" (Serve.Protocol.Analyze { sizes = Serve.Protocol.Committed }));
  submit (req ~id:3 ~circuit:"tree" (Serve.Protocol.Whatif { deltas = [| (0, 2.0) |] }));
  submit
    (req ~id:4 ~circuit:"tree"
       (Serve.Protocol.Gradient
          { sizes = Serve.Protocol.Committed; seed = Serve.Protocol.Seed_mu_k_sigma 3. }));
  submit
    (req ~id:5 ~circuit:"tree" ~max_evals:2000
       (Serve.Protocol.Size
          { objective = Serve.Protocol.Min_delay 3.; recovery = true }));
  submit (req ~id:6 (Serve.Protocol.Stats));
  Serve.Server.stop ~drain:false t;
  let replies = List.map decode (all ()) in
  Alcotest.(check int) "six replies" 6 (List.length replies);
  List.iter
    (fun (r : Serve.Protocol.response) ->
      match r.payload with
      | Serve.Protocol.Error { code; message } ->
          Alcotest.failf "request %s failed: %s %s" r.kind
            (Serve.Protocol.error_code_name code)
            message
      | _ -> ())
    replies;
  conservation_holds t;
  let submitted, served, _, _, _ = Serve.Server.counters t in
  Alcotest.(check int) "all submitted" 6 submitted;
  Alcotest.(check int) "all served" 6 served;
  (* The analyze reply (id 2, pre-solve) is bit-identical to batch. *)
  let analyze =
    List.find
      (fun (r : Serve.Protocol.response) -> r.id = Serve.Json.Num 2.)
      replies
  in
  let net = netlist "tree" in
  Alcotest.(check string) "served analyze equals batch"
    (render (batch_analysis net ~sizes:(Circuit.Netlist.min_sizes net)))
    (render analyze.payload)

let test_server_typed_failures () =
  let t = Serve.Server.create () in
  Serve.Server.add_circuit t ~name:"tree" ~model (netlist "tree");
  let reply, all = collector () in
  Serve.Server.start t;
  let submit = Serve.Server.submit_line t ~reply in
  submit (req ~id:1 ~circuit:"nope" (Serve.Protocol.Analyze { sizes = Serve.Protocol.Committed }));
  submit "this is not json";
  submit
    (req ~id:3 ~circuit:"tree" ~deadline_ms:1e-6
       (Serve.Protocol.Analyze { sizes = Serve.Protocol.Committed }));
  submit
    (req ~id:4 ~circuit:"tree" ~deadline_ms:1e-6
       (Serve.Protocol.Gradient
          { sizes = Serve.Protocol.Committed; seed = Serve.Protocol.Seed_mu }));
  Serve.Server.stop ~drain:false t;
  let replies = List.map decode (all ()) in
  Alcotest.(check int) "four replies" 4 (List.length replies);
  let by_id i =
    List.find (fun (r : Serve.Protocol.response) -> r.id = Serve.Json.Num (float_of_int i)) replies
  in
  (match (by_id 1).payload with
  | Serve.Protocol.Error { code = Serve.Protocol.Unknown_circuit; _ } -> ()
  | p -> Alcotest.failf "unknown circuit answered %s" (render p));
  (match
     List.find_opt
       (fun (r : Serve.Protocol.response) -> r.id = Serve.Json.Null)
       replies
   with
  | Some { payload = Serve.Protocol.Error { code = Serve.Protocol.Bad_request; _ }; _ } -> ()
  | _ -> Alcotest.fail "garbage line did not produce a typed bad_request");
  (* An over-deadline analyze degrades (flagged mean-only answer)... *)
  (match (by_id 3).payload with
  | Serve.Protocol.Degraded { typical; _ } ->
      let net = netlist "tree" in
      let det = Sta.Dsta.analyze net ~sizes:(Circuit.Netlist.min_sizes net) in
      Alcotest.(check bool) "degraded typical is the Dsta sweep" true
        (Int64.equal (bits typical) (bits det.Sta.Dsta.circuit))
  | p -> Alcotest.failf "over-deadline analyze answered %s" (render p));
  (* ...while an over-deadline gradient gets a typed timeout. *)
  (match (by_id 4).payload with
  | Serve.Protocol.Error { code = Serve.Protocol.Timeout; _ } -> ()
  | p -> Alcotest.failf "over-deadline gradient answered %s" (render p));
  conservation_holds t;
  let submitted, served, degraded, shed, refused = Serve.Server.counters t in
  Alcotest.(check int) "submitted" 4 submitted;
  Alcotest.(check int) "served" 0 served;
  Alcotest.(check int) "degraded" 1 degraded;
  Alcotest.(check int) "shed" 0 shed;
  Alcotest.(check int) "refused" 3 refused

(* Shedding and drain, made deterministic by submitting while the
   executor has not started: the queue fills, sheds by priority, and the
   delayed start in Drain mode answers the leftovers shutting_down. *)
let test_server_shed_and_drain () =
  let t =
    Serve.Server.create
      ~config:{ Serve.Server.default_config with queue_capacity = 2 }
      ()
  in
  Serve.Server.add_circuit t ~name:"tree" ~model (netlist "tree");
  let reply, all = collector () in
  let submit = Serve.Server.submit_line t ~reply in
  let size_body =
    Serve.Protocol.Size { objective = Serve.Protocol.Min_delay 0.; recovery = true }
  in
  submit (req ~id:1 size_body);
  submit (req ~id:2 size_body);
  (* Equal class: the arrival is refused. *)
  submit (req ~id:3 size_body);
  (* Analysis: evicts the oldest queued solve (id 1). *)
  submit (req ~id:4 (Serve.Protocol.Analyze { sizes = Serve.Protocol.Committed }));
  (* SIGTERM semantics: mode flips to Drain before the executor runs, so
     the queued requests (id 2 and 4) get typed shutting_down replies. *)
  Serve.Server.stop ~drain:true t;
  Serve.Server.start t;
  Serve.Server.stop t;
  (* A submission after shutdown is refused immediately. *)
  submit (req ~id:5 (Serve.Protocol.Analyze { sizes = Serve.Protocol.Committed }));
  let replies = List.map decode (all ()) in
  Alcotest.(check int) "five replies" 5 (List.length replies);
  let code_of i =
    match
      List.find
        (fun (r : Serve.Protocol.response) -> r.id = Serve.Json.Num (float_of_int i))
        replies
    with
    | { payload = Serve.Protocol.Error { code; _ }; _ } -> Serve.Protocol.error_code_name code
    | _ -> "ok"
  in
  Alcotest.(check string) "oldest solve shed by the analysis" "overloaded" (code_of 1);
  Alcotest.(check string) "queued solve drained" "shutting_down" (code_of 2);
  Alcotest.(check string) "equal-class arrival shed" "overloaded" (code_of 3);
  Alcotest.(check string) "queued analysis drained" "shutting_down" (code_of 4);
  Alcotest.(check string) "post-shutdown submission refused" "shutting_down"
    (code_of 5);
  conservation_holds t;
  let submitted, served, degraded, shed, refused = Serve.Server.counters t in
  Alcotest.(check int) "submitted" 5 submitted;
  Alcotest.(check int) "served" 0 served;
  Alcotest.(check int) "degraded" 0 degraded;
  Alcotest.(check int) "shed" 2 shed;
  Alcotest.(check int) "refused" 3 refused

(* Quarantine: with a fault plan that breaks every solve, the breaker
   trips after [threshold] breakdowns and quarantines further solves —
   while analyses on the same circuit keep serving. *)
let test_server_quarantine () =
  let plan =
    Util.Fault.plan ~seed:11
      [
        {
          Util.Fault.kind = Util.Fault.Nan_value;
          component = None;
          trigger = Util.Fault.Always;
        };
      ]
  in
  let instrument problem =
    Nlp.Problem.map_components
      (fun ~component f ->
        Util.Fault.wrap plan ~component:(Nlp.Problem.component_index component) f)
      problem
  in
  let t =
    Serve.Server.create ~instrument
      ~config:
        {
          Serve.Server.default_config with
          breaker = { Serve.Breaker.threshold = 3; cooldown_s = 3600. };
        }
      ()
  in
  Serve.Server.add_circuit t ~name:"fig2" ~model (netlist "fig2");
  let reply, all = collector () in
  Serve.Server.start t;
  let submit = Serve.Server.submit_line t ~reply in
  let size i =
    submit
      (req ~id:i ~circuit:"fig2" ~max_evals:400
         (Serve.Protocol.Size
            { objective = Serve.Protocol.Min_delay 3.; recovery = false }))
  in
  size 1;
  size 2;
  size 3;
  size 4;
  submit (req ~id:5 ~circuit:"fig2" (Serve.Protocol.Analyze { sizes = Serve.Protocol.Committed }));
  Serve.Server.stop ~drain:false t;
  let replies = List.map decode (all ()) in
  let code_of i =
    match
      List.find
        (fun (r : Serve.Protocol.response) -> r.id = Serve.Json.Num (float_of_int i))
        replies
    with
    | { payload = Serve.Protocol.Error { code; _ }; _ } -> Serve.Protocol.error_code_name code
    | _ -> "ok"
  in
  Alcotest.(check string) "first breakdown" "breakdown" (code_of 1);
  Alcotest.(check string) "second breakdown" "breakdown" (code_of 2);
  Alcotest.(check string) "third breakdown trips the breaker" "breakdown" (code_of 3);
  Alcotest.(check string) "fourth solve quarantined" "quarantined" (code_of 4);
  Alcotest.(check string) "analyze still serves on the quarantined circuit" "ok"
    (code_of 5);
  conservation_holds t;
  let _, served, _, _, refused = Serve.Server.counters t in
  Alcotest.(check int) "one served" 1 served;
  Alcotest.(check int) "four refused" 4 refused

(* ---- Soak (release-gated) ------------------------------------------------------ *)

(* The soak is a release-profile drill (CI runs it there); dev builds
   skip it, keyed on the same inlining canary as test_arena. *)

let soak_circuits = [| "tree"; "fig2"; "chain" |]

(* Per-request deterministic explicit sizes, so a batch recomputation is
   possible no matter how requests interleaved with committing solves. *)
let soak_sizes net ~seed ~key =
  let rng = Util.Rng.keyed seed ~key in
  let maxs = Circuit.Netlist.max_sizes net in
  Array.init (Circuit.Netlist.n_gates net) (fun g ->
      Util.Rng.uniform rng ~lo:1.0 ~hi:maxs.(g))

let test_soak_multi_client () =
  if not (Release_profile.kernels_inlined ()) then Alcotest.skip ()
  else begin
    let n_clients = 4 and per_client = 40 in
    let plan =
      Util.Fault.plan ~seed:7
        [
          {
            Util.Fault.kind = Util.Fault.Nan_value;
            component = None;
            trigger = Util.Fault.First 2;
          };
          {
            Util.Fault.kind = Util.Fault.Perturb 0.25;
            component = None;
            trigger = Util.Fault.First 3;
          };
        ]
    in
    let instrument problem =
      Nlp.Problem.map_components
        (fun ~component f ->
          Util.Fault.wrap plan ~component:(Nlp.Problem.component_index component) f)
        problem
    in
    let t =
      Serve.Server.create ~instrument
        ~config:
          {
            Serve.Server.default_config with
            queue_capacity = 8;
            warm_capacity = 2;
          }
        ()
    in
    let nets = Array.map netlist soak_circuits in
    Array.iteri
      (fun i name -> Serve.Server.add_circuit t ~name ~model nets.(i))
      soak_circuits;
    let reply, all = collector () in
    Serve.Server.start t;
    let request_line ~client ~i =
      let id = (client * 1000) + i in
      let ci = i mod Array.length soak_circuits in
      let circuit = soak_circuits.(ci) in
      let net = nets.(ci) in
      match i mod 8 with
      | 0 | 1 ->
          req ~id ~circuit
            (Serve.Protocol.Analyze
               { sizes = Serve.Protocol.Explicit (soak_sizes net ~seed:client ~key:i) })
      | 2 ->
          req ~id ~circuit
            (Serve.Protocol.Gradient
               {
                 sizes = Serve.Protocol.Explicit (soak_sizes net ~seed:client ~key:i);
                 seed = Serve.Protocol.Seed_mu_k_sigma 3.;
               })
      | 3 -> req ~id ~circuit (Serve.Protocol.Whatif { deltas = [| (0, 1.5) |] })
      | 4 ->
          req ~id ~circuit ~max_evals:400
            (Serve.Protocol.Size
               { objective = Serve.Protocol.Min_delay 3.; recovery = true })
      | 5 ->
          (* Deliberately hopeless deadline: must degrade, never hang. *)
          req ~id ~circuit ~deadline_ms:1e-6
            (Serve.Protocol.Analyze { sizes = Serve.Protocol.Committed })
      | 6 -> req ~id (Serve.Protocol.Stats)
      | _ -> req ~id (Serve.Protocol.Health)
    in
    let clients =
      List.init n_clients (fun client ->
          Thread.create
            (fun () ->
              for i = 0 to per_client - 1 do
                Serve.Server.submit_line t ~reply (request_line ~client ~i)
              done)
            ())
    in
    List.iter Thread.join clients;
    Serve.Server.stop ~drain:false t;
    let replies = List.map decode (all ()) in
    let total = n_clients * per_client in
    (* Zero lost requests: exactly one typed reply each. *)
    Alcotest.(check int) "every request answered exactly once" total
      (List.length replies);
    conservation_holds t;
    let submitted, served, degraded, shed, refused = Serve.Server.counters t in
    Alcotest.(check int) "all submissions counted" total submitted;
    Alcotest.(check bool)
      (Printf.sprintf "work served (%d served, %d degraded, %d shed, %d refused)"
         served degraded shed refused)
      true (served > 0);
    (* Every reply is a known type; every fully-served explicit analyze
       or gradient is Int64-bit-identical to a fresh batch evaluation. *)
    List.iter
      (fun (r : Serve.Protocol.response) ->
        let id =
          match r.id with
          | Serve.Json.Num f -> int_of_float f
          | _ -> Alcotest.failf "reply with unexpected id"
        in
        let client = id / 1000 and i = id mod 1000 in
        let ci = i mod Array.length soak_circuits in
        let net = nets.(ci) in
        match r.payload with
        | Serve.Protocol.Error { code; _ } -> (
            match code with
            | Serve.Protocol.Overloaded | Serve.Protocol.Timeout
            | Serve.Protocol.Quarantined | Serve.Protocol.Breakdown
            | Serve.Protocol.Unconverged | Serve.Protocol.Shutting_down -> ()
            | _ ->
                Alcotest.failf "request %d failed unexpectedly: %s" id
                  (Serve.Protocol.error_code_name code))
        | Serve.Protocol.Analysis _ when i mod 8 <= 1 ->
            let sizes = soak_sizes net ~seed:client ~key:i in
            Alcotest.(check string)
              (Printf.sprintf "request %d bit-identical to batch" id)
              (render (batch_analysis net ~sizes))
              (render r.payload)
        | Serve.Protocol.Gradient_result _ when i mod 8 = 2 ->
            let sizes = soak_sizes net ~seed:client ~key:i in
            let arena = Sta.Arena.create net in
            let res = Sta.Ssta.analyze ~arena ~model net ~sizes in
            let gradient =
              Sta.Ssta.gradient ~arena ~model net ~sizes
                ~seed:(Sta.Ssta.mu_plus_k_sigma_seed 3.)
            in
            let expected =
              Serve.Protocol.Gradient_result
                {
                  value = Statdelay.Normal.mu_plus_k_sigma res.Sta.Ssta.circuit 3.;
                  gradient;
                }
            in
            Alcotest.(check string)
              (Printf.sprintf "gradient %d bit-identical to batch" id)
              (render expected) (render r.payload)
        | Serve.Protocol.Degraded _ when i mod 8 = 5 -> ()
        | _ -> ())
      replies
  end

let () =
  Alcotest.run "serve"
    [
      ( "json",
        [
          Alcotest.test_case "float bits round-trip" `Quick test_json_float_bits;
          Alcotest.test_case "values and parse errors" `Quick
            test_json_values_and_errors;
          Alcotest.test_case "positioned parse errors" `Quick test_json_positioned_errors;
          Alcotest.test_case "nesting depth cap" `Quick test_json_depth_cap;
          Alcotest.test_case "printer: every binary exponent" `Quick
            test_printer_binary_exponents;
          Alcotest.test_case "printer: asymmetric powers of two" `Quick
            test_printer_asymmetric_powers;
          Alcotest.test_case "printer: edges" `Quick test_printer_edges;
          Alcotest.test_case "printer: random bit patterns" `Quick
            test_printer_random_bits;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "request round-trip" `Quick test_request_roundtrip;
          Alcotest.test_case "request rejects garbage" `Quick
            test_request_rejects_garbage;
          Alcotest.test_case "response round-trip" `Quick test_response_roundtrip;
          Alcotest.test_case "truncated lines never raise" `Quick
            test_truncated_lines_never_raise;
          Alcotest.test_case "shed class order" `Quick test_shed_class_order;
          Alcotest.test_case "error code names" `Quick test_error_code_names;
        ] );
      ( "breaker",
        [ Alcotest.test_case "state machine" `Quick test_breaker_state_machine ] );
      ( "admission",
        [ Alcotest.test_case "shedding policy" `Quick test_admission_shedding ] );
      ( "registry",
        [ Alcotest.test_case "lru and committed sizes" `Quick test_registry_lru ] );
      ( "exec",
        [
          Alcotest.test_case "analyze bit identity" `Quick
            test_exec_analyze_bit_identity;
          Alcotest.test_case "gradient reply bytes" `Quick test_exec_gradient_reply_bytes;
          Alcotest.test_case "no forced minor collection" `Quick
            test_exec_no_forced_minor_collection;
          Alcotest.test_case "degraded and timeout" `Quick
            test_exec_degraded_and_timeout;
          Alcotest.test_case "bad requests" `Quick test_exec_bad_requests;
          Alcotest.test_case "size commits" `Quick test_exec_size_commits;
          Alcotest.test_case "what-if deltas" `Quick test_exec_whatif_deltas;
          Alcotest.test_case "what-if words (release only)" `Quick test_exec_whatif_words;
        ] );
      ( "server",
        [
          Alcotest.test_case "serves all kinds" `Quick test_server_serves_all_kinds;
          Alcotest.test_case "typed failures" `Quick test_server_typed_failures;
          Alcotest.test_case "shed and drain" `Quick test_server_shed_and_drain;
          Alcotest.test_case "quarantine" `Quick test_server_quarantine;
        ] );
      ( "soak",
        [
          Alcotest.test_case "multi-client under faults (release only)" `Slow
            test_soak_multi_client;
        ] );
    ]
