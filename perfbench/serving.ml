(* Serve: a closed loop into an in-process [Serve.Server] through
   [submit_line], with [Util.Instr] enabled as [statsize serve] runs it.
   One client in a second domain submits each request once the previous
   reply has arrived; the server's executor thread is the only other
   thread.  Closed, not open: at a fixed arrival rate the executor idles
   between requests, and waking it costs a varying amount on a shared
   host.

   Five circuits against the default four warm engines, so the LRU
   evicts.  The request lines come from the generated schedule.

   Series: [rt.<kind>.<circuit>] round trip per request (ms), [setup] (s). *)

open Obs

let model = Circuit.Sigma_model.paper_default

type outcome = Served | Degraded | Shed | Refused

type slot = {
  line : string;
  kind : string;
  circuit : string;
  mutable reply : string;
  mutable exec0 : int;  (** traced: first server clock reading of this request *)
  mutable exec1 : int;  (** traced: last one, when the executor finished it *)
}

let outcome_of reply =
  match Serve.Protocol.decode_response reply with
  | Ok { payload = Serve.Protocol.Error { code = Overloaded; _ }; _ } -> Shed
  | Ok { payload = Serve.Protocol.Error _; _ } | Error _ -> Refused
  | Ok { payload = Serve.Protocol.Degraded _; _ } -> Degraded
  | Ok _ -> Served

(* The five registered circuits: the three paper stand-ins and two
   generated DAGs whose seeds come from the schedule file. *)
let circuits ~dag_seeds =
  let dag n seed =
    Circuit.Generate.random_dag
      {
        Circuit.Generate.default_spec with
        n_gates = n;
        n_pis = max 16 (n / 80);
        target_depth = 24;
        seed;
      }
  in
  [
    ("apex2", Circuit.Generate.apex2_like ());
    ("apex1", Circuit.Generate.apex1_like ());
    ("k2", Circuit.Generate.k2_like ());
    ("dag6k", dag 6_000 (fst dag_seeds));
    ("dag24k", dag 24_000 (snd dag_seeds));
  ]

(* Server-clock readings on the executor: [Server.handle] reads the
   clock when it takes a request and again when it has answered it, so
   the first reading since the previous reply and the latest one bracket
   this request's execution.  Only the executor runs on domain 0 while
   the client domain drives the loop. *)
let first_since_reply = ref (-1)
let last_reading = ref 0

let traced_now () =
  let t = now_ns () in
  if (Domain.self () :> int) = 0 then begin
    if !first_since_reply < 0 then first_since_reply := t;
    last_reading := t
  end;
  t

type session = {
  server : Serve.Server.t;
  nets : (string * Circuit.Netlist.t) list;
  entries : string array;  (** the schedule *)
  mutable cursor : int;  (** next schedule entry *)
  mutable slots : slot list;  (** submitted requests, latest first *)
  mutable submitted : int;  (** every request the client submitted *)
  mutable seen : outcome list;  (** the outcome of each *)
}

(* Submits one line and spins until its reply is in; returns the reply.
   [on_reply] runs on the replying thread. *)
let round_trip server line ~on_reply =
  let got = Atomic.make None in
  Serve.Server.submit_line server
    ~reply:(fun r ->
      on_reply ();
      Atomic.set got (Some r))
    line;
  let rec wait () =
    match Atomic.get got with
    | Some r -> r
    | None ->
        Domain.cpu_relax ();
        wait ()
  in
  wait ()

let warm_lines names =
  List.mapi
    (fun i name -> Printf.sprintf {|{"id":"warm%d","circuit":"%s","op":"analyze"}|} i name)
    names

(* Set-up: create the server, register the circuits, start it and warm
   an engine for each (the last one warmed evicts the first), [reps]
   times; keeps the last server running. *)
let setup ~series ~nets ~entries ~reps =
  let last = ref None in
  for _ = 1 to reps do
    Option.iter (fun s -> Serve.Server.stop ~drain:false s.server) !last;
    last := None;
    Gc.full_major ();
    let t0 = now_ns () in
    let now = if !trace_run then Some traced_now else None in
    let server = Serve.Server.create ?now () in
    List.iter (fun (name, net) -> Serve.Server.add_circuit server ~name ~model net) nets;
    Serve.Server.start server;
    let s = { server; nets; entries; cursor = 0; slots = []; submitted = 0; seen = [] } in
    List.iter
      (fun line ->
        let r = round_trip server line ~on_reply:ignore in
        s.submitted <- s.submitted + 1;
        s.seen <- outcome_of r :: s.seen)
      (warm_lines (List.map fst nets));
    sample series (float_of_int (now_ns () - t0) /. 1e9);
    last := Some s
  done;
  Option.get !last

(* A schedule line is "<kind> <circuit> <request>". *)
let slot_of entry =
  let sp1 = String.index entry ' ' in
  let sp2 = String.index_from entry (sp1 + 1) ' ' in
  {
    kind = String.sub entry 0 sp1;
    circuit = String.sub entry (sp1 + 1) (sp2 - sp1 - 1);
    line = String.sub entry (sp2 + 1) (String.length entry - sp2 - 1);
    reply = "";
    exec0 = 0;
    exec1 = 0;
  }

let c_reeval = Util.Instr.counter "incr.gates_reevaluated"
let c_analyze = Util.Instr.counter "incr.analyze"

(* One step: the next [count] requests of the schedule (one block of
   its fixed mix), closed-loop from a second domain, with [Util.Instr]
   on as the daemon runs it.  The schedule repeats if a run outlasts
   it.  Series [block]: the block's summed round trips (ms), re-warms of
   evicted engines included. *)
let burst s ~count =
  let traced = !tracing in
  let reeval = ref 0 and gate_analyses = ref 0 and block_ms = ref 0. in
  first_since_reply := -1;
  let client () =
    for _ = 1 to count do
      let n = s.cursor in
      s.cursor <- n + 1;
      let sl = slot_of s.entries.(n mod Array.length s.entries) in
      s.slots <- sl :: s.slots;
      let re0 = Util.Instr.count c_reeval and an0 = Util.Instr.count c_analyze in
      let on_reply () =
        if traced then begin
          sl.exec0 <- !first_since_reply;
          sl.exec1 <- !last_reading;
          first_since_reply := -1;
          reeval := !reeval + (Util.Instr.count c_reeval - re0);
          gate_analyses :=
            !gate_analyses
            + (Util.Instr.count c_analyze - an0)
              * Circuit.Netlist.n_gates (List.assoc sl.circuit s.nets)
        end
      in
      let t0 = now_ns () in
      let r = round_trip s.server sl.line ~on_reply in
      let t1 = now_ns () in
      sl.reply <- r;
      block_ms := !block_ms +. ms_between t0 t1;
      sample (Printf.sprintf "rt.%s.%s" sl.kind sl.circuit) (ms_between t0 t1);
      if traced then begin
        let root = add_span "serve.request" ~op:n ~parent:(-1) t0 t1 in
        if sl.exec0 > 0 then begin
          ignore (add_span "serve.queue" ~op:n ~parent:root t0 sl.exec0);
          ignore (add_span ("serve.exec." ^ sl.kind) ~op:n ~parent:root sl.exec0 sl.exec1)
        end;
        (* The codec work of this exchange, done again on the client:
           decode the request and encode the reply as the server does,
           decode the reply as a client does. *)
        let c0 = now_ns () in
        ignore (Sys.opaque_identity (Serve.Protocol.decode_request sl.line));
        (match Serve.Protocol.decode_response r with
        | Ok resp -> ignore (Sys.opaque_identity (Serve.Protocol.encode_response resp))
        | Error _ -> ());
        let c1 = now_ns () in
        ignore (add_span "serve.codec" ~op:n ~parent:(-1) c0 c1);
        sample "codec_us" (float_of_int (c1 - c0) /. 1e3)
      end
    done
  in
  Util.Instr.enable ();
  Domain.join (Domain.spawn client);
  if not !trace_run then Util.Instr.disable ();
  sample "block" !block_ms;
  add_value "incr_reevaluated" (float_of_int !reeval);
  add_value "incr_gate_analyses" (float_of_int !gate_analyses)

(* A served analysis at uniform sizes must be byte-equal to a batch
   analysis of the same circuit at those sizes. *)
let batch_equal ~nets sl =
  match (Serve.Protocol.decode_request sl.line, Serve.Protocol.decode_response sl.reply) with
  | Ok { body = Analyze { sizes = Uniform u }; circuit = Some c; _ }, Ok resp ->
      let net = List.assoc c nets in
      let sizes = Array.make (Circuit.Netlist.n_gates net) u in
      let r = Sta.Ssta.analyze ~model net ~sizes in
      let batch =
        Serve.Protocol.Analysis
          {
            mu = r.circuit.Statdelay.Normal.mu;
            var = r.circuit.Statdelay.Normal.var;
            area = Circuit.Netlist.area net ~sizes;
            n_gates = Circuit.Netlist.n_gates net;
          }
      in
      String.equal
        (Serve.Json.to_string (Serve.Protocol.result_json batch))
        (Serve.Json.to_string (Serve.Protocol.result_json resp.payload))
  | _ -> false

(* Counts every request as one operation, served and (every eighth
   analysis) byte-equal to a batch run, stops the server and checks the
   conservation law against what the client saw. *)
let finish s =
  let nets = s.nets in
  let analyses = ref 0 in
  List.iter
    (fun sl ->
      let o = outcome_of sl.reply in
      s.submitted <- s.submitted + 1;
      s.seen <- o :: s.seen;
      let sampled =
        sl.kind = "analyze"
        && begin
             incr analyses;
             !analyses mod 8 = 1
           end
      in
      let equal = (not sampled) || batch_equal ~nets sl in
      operation ~kind:"request"
        (Printf.sprintf "serve %s on %s:%s%s" sl.kind sl.circuit
           (if o = Served then "" else " not served")
           (if equal then "" else " differs from batch"))
        ~succeeded:(o = Served) ~checks_ok:equal)
    (List.rev s.slots);
  Serve.Server.stop ~drain:false s.server;
  let submitted, served, degraded, shed, refused = Serve.Server.counters s.server in
  let tally o = List.length (List.filter (( = ) o) s.seen) in
  check "serve conservation law" (submitted = served + degraded + shed + refused);
  check "serve counters match the client"
    (submitted = s.submitted && served = tally Served && degraded = tally Degraded
   && shed = tally Shed && refused = tally Refused);
  if !trace_run then begin
    let stats = Serve.Server.stats_json s.server in
    let num k = Option.value ~default:0. (Option.bind (Serve.Json.member k stats) Serve.Json.num) in
    set_value "serve.evictions" (num "evictions");
    set_value "serve.shed" (float_of_int shed);
    set_value "serve.degraded" (float_of_int degraded)
  end
