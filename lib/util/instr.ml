type counter = { cname : string; value : int Atomic.t }

type timer = {
  tname : string;
  calls : int Atomic.t;
  ns : int Atomic.t;
  minor_w : int Atomic.t;  (* minor-heap words allocated inside timed sections *)
  promoted_w : int Atomic.t;  (* words promoted to the major heap inside them *)
}

(* Log-spaced latency buckets shared by every histogram: upper bounds in
   seconds, the last bucket catching everything beyond.  Fixed bounds
   keep observation to one array index + atomic increment and make
   histograms mergeable across processes. *)
let bucket_bounds =
  [| 1e-4; 3e-4; 1e-3; 3e-3; 1e-2; 3e-2; 1e-1; 3e-1; 1.; 3. |]

type histogram = {
  hname : string;
  observations : int Atomic.t;
  sum_ns : int Atomic.t;
  buckets : int Atomic.t array;  (* length bucket_bounds + 1 (overflow) *)
}

(* The registry is touched only at module-initialisation time (interning)
   and when reporting, never on the instrumented hot path. *)
let registry_lock = Mutex.create ()
let counters : (string, counter) Hashtbl.t = Hashtbl.create 16
let timers : (string, timer) Hashtbl.t = Hashtbl.create 16
let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 16
let on = Atomic.make false

let enable () = Atomic.set on true
let disable () = Atomic.set on false
let enabled () = Atomic.get on

let intern table make name =
  Mutex.lock registry_lock;
  let v =
    match Hashtbl.find_opt table name with
    | Some v -> v
    | None ->
        let v = make name in
        Hashtbl.add table name v;
        v
  in
  Mutex.unlock registry_lock;
  v

let counter name =
  intern counters (fun cname -> { cname; value = Atomic.make 0 }) name

let timer name =
  intern timers
    (fun tname ->
      {
        tname;
        calls = Atomic.make 0;
        ns = Atomic.make 0;
        minor_w = Atomic.make 0;
        promoted_w = Atomic.make 0;
      })
    name

let histogram name =
  intern histograms
    (fun hname ->
      {
        hname;
        observations = Atomic.make 0;
        sum_ns = Atomic.make 0;
        buckets =
          Array.init (Array.length bucket_bounds + 1) (fun _ -> Atomic.make 0);
      })
    name

let incr c = if Atomic.get on then Atomic.incr c.value
let add c k = if Atomic.get on then ignore (Atomic.fetch_and_add c.value k)
let count c = Atomic.get c.value

let observe_ns h ns =
  if Atomic.get on then begin
    let s = float_of_int ns *. 1e-9 in
    let n = Array.length bucket_bounds in
    let rec slot i = if i >= n || s <= bucket_bounds.(i) then i else slot (i + 1) in
    Atomic.incr h.buckets.(slot 0);
    Atomic.incr h.observations;
    ignore (Atomic.fetch_and_add h.sum_ns ns)
  end

let observations h = Atomic.get h.observations

(* CLOCK_MONOTONIC via bechamel's tiny stub library (the only C binding
   already in the build); [Sys.time] would sum CPU time over domains. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Allocation is tracked per timed section through [Gc.minor_words]
   and [Gc.counters] deltas (cheap: both read the current domain's
   allocation pointers, no heap walk).  The minor count comes from
   [Gc.minor_words], which includes the words still in the minor heap:
   [Gc.counters]' minor count leaves them out, so a section in which a
   minor collection lands would be charged with everything allocated
   since the previous one.  The bookkeeping itself allocates a few
   words per call (the counters tuple and closure), so enabled-mode
   figures carry a small constant per-call overhead; with
   instrumentation disabled the hot path is still a single
   load-and-branch. *)
let time t f =
  if not (Atomic.get on) then f ()
  else begin
    let t0 = now_ns () in
    let m0 = Gc.minor_words () and _, p0, _ = Gc.counters () in
    Fun.protect
      ~finally:(fun () ->
        let m1 = Gc.minor_words () and _, p1, _ = Gc.counters () in
        Atomic.incr t.calls;
        ignore (Atomic.fetch_and_add t.ns (now_ns () - t0));
        ignore (Atomic.fetch_and_add t.minor_w (int_of_float (m1 -. m0)));
        ignore (Atomic.fetch_and_add t.promoted_w (int_of_float (p1 -. p0))))
      f
  end

let reset () =
  Mutex.lock registry_lock;
  Hashtbl.iter (fun _ c -> Atomic.set c.value 0) counters;
  Hashtbl.iter
    (fun _ t ->
      Atomic.set t.calls 0;
      Atomic.set t.ns 0;
      Atomic.set t.minor_w 0;
      Atomic.set t.promoted_w 0)
    timers;
  Hashtbl.iter
    (fun _ h ->
      Atomic.set h.observations 0;
      Atomic.set h.sum_ns 0;
      Array.iter (fun b -> Atomic.set b 0) h.buckets)
    histograms;
  Mutex.unlock registry_lock

type timed = {
  calls : int;
  seconds : float;
  minor_words : int;
  promoted_words : int;
}

type hist = {
  observations : int;
  sum_seconds : float;
  buckets : (float * int) list;
}

type snapshot = {
  counters : (string * int) list;
  timers : (string * timed) list;
  histograms : (string * hist) list;
}

let snapshot ?(all = false) () =
  Mutex.lock registry_lock;
  let cs =
    Hashtbl.fold
      (fun name c acc ->
        let v = Atomic.get c.value in
        if v = 0 && not all then acc else (name, v) :: acc)
      counters []
  in
  let ts =
    Hashtbl.fold
      (fun name (t : timer) acc ->
        let calls = Atomic.get t.calls in
        if calls = 0 && not all then acc
        else
          ( name,
            {
              calls;
              seconds = float_of_int (Atomic.get t.ns) *. 1e-9;
              minor_words = Atomic.get t.minor_w;
              promoted_words = Atomic.get t.promoted_w;
            } )
          :: acc)
      timers []
  in
  let hs =
    Hashtbl.fold
      (fun name (h : histogram) acc ->
        let observations = Atomic.get h.observations in
        if observations = 0 && not all then acc
        else
          ( name,
            {
              observations;
              sum_seconds = float_of_int (Atomic.get h.sum_ns) *. 1e-9;
              buckets =
                List.init (Array.length h.buckets) (fun i ->
                    ( (if i < Array.length bucket_bounds then bucket_bounds.(i)
                       else Float.infinity),
                      Atomic.get h.buckets.(i) ));
            } )
          :: acc)
      histograms []
  in
  Mutex.unlock registry_lock;
  {
    counters = List.sort (fun (a, _) (b, _) -> compare a b) cs;
    timers = List.sort (fun (a, _) (b, _) -> compare a b) ts;
    histograms = List.sort (fun (a, _) (b, _) -> compare a b) hs;
  }

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_json s =
  let b = Buffer.create 256 in
  Buffer.add_string b "{\n  \"counters\": {";
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "\n    \"%s\": %d" (json_escape name) v))
    s.counters;
  if s.counters <> [] then Buffer.add_string b "\n  ";
  Buffer.add_string b "},\n  \"timers\": {";
  List.iteri
    (fun i (name, t) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "\n    \"%s\": {\"calls\": %d, \"seconds\": %.9f, \"minor_words\": \
            %d, \"promoted_words\": %d}"
           (json_escape name) t.calls t.seconds t.minor_words t.promoted_words))
    s.timers;
  if s.timers <> [] then Buffer.add_string b "\n  ";
  Buffer.add_string b "},\n  \"histograms\": {";
  List.iteri
    (fun i (name, h) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "\n    \"%s\": {\"observations\": %d, \"sum_seconds\": %.9f, \"buckets\": ["
           (json_escape name) h.observations h.sum_seconds);
      List.iteri
        (fun j (le, count) ->
          if j > 0 then Buffer.add_string b ", ";
          Buffer.add_string b
            (if Float.is_integer le || le = Float.infinity then
               Printf.sprintf "{\"le\": %s, \"count\": %d}"
                 (if le = Float.infinity then "\"inf\"" else Printf.sprintf "%g" le)
                 count
             else Printf.sprintf "{\"le\": %g, \"count\": %d}" le count))
        h.buckets;
      Buffer.add_string b "]}")
    s.histograms;
  if s.histograms <> [] then Buffer.add_string b "\n  ";
  Buffer.add_string b "}\n}\n";
  Buffer.contents b

let pp ppf s =
  Format.fprintf ppf "@[<v>";
  List.iter (fun (name, v) -> Format.fprintf ppf "%-32s %12d@," name v) s.counters;
  List.iter
    (fun (name, t) ->
      Format.fprintf ppf "%-32s %12d calls %10.3f ms %10.0f w/call@," name
        t.calls (t.seconds *. 1e3)
        (if t.calls = 0 then 0.
         else float_of_int t.minor_words /. float_of_int t.calls))
    s.timers;
  List.iter
    (fun (name, h) ->
      Format.fprintf ppf "%-32s %12d obs   %10.3f ms mean@," name h.observations
        (if h.observations = 0 then 0.
         else 1e3 *. h.sum_seconds /. float_of_int h.observations))
    s.histograms;
  Format.fprintf ppf "@]"
