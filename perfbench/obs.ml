(* Measurement plumbing shared by the phases: the clock, raw sample
   series, traced spans, per-layer values and output checks, written as
   one JSON record that run.py reduces to metrics.  Every statistic
   (medians, self times) is computed in reduce.py, where the unit tests
   pin its arithmetic; this side only records. *)

let now_ns = Util.Instr.now_ns
let ms_between t0 t1 = float_of_int (t1 - t0) /. 1e6

(* ---- tracing ---------------------------------------------------------------- *)

(* Spans are recorded only in the traced run, from this benchmark's own
   code around each public call: name, start, end, parent (-1 for a
   root) and the id of the solve or request they belong to.  Held in
   memory, written out at the end.  [trace_run] marks the traced run;
   [tracing] is whether spans are recorded now: the traced run turns it
   off on every other step of its main phase, whose samples then go to
   [<series>#u], so that the cost of tracing is measured in one process
   (reduce.py compares the two). *)
let trace_run = ref false
let tracing = ref false

(* ---- sample series ---------------------------------------------------------- *)

type series = { mutable data : float array; mutable len : int }

let series_tbl : (string, series) Hashtbl.t = Hashtbl.create 64
let series_order = ref []

let push s x =
  if s.len = Array.length s.data then begin
    let d = Array.make (2 * s.len) 0. in
    Array.blit s.data 0 d 0 s.len;
    s.data <- d
  end;
  s.data.(s.len) <- x;
  s.len <- s.len + 1

let get_series name =
  match Hashtbl.find_opt series_tbl name with
  | Some s -> s
  | None ->
      let s = { data = Array.make 64 0.; len = 0 } in
      Hashtbl.replace series_tbl name s;
      series_order := name :: !series_order;
      s

(* Appends one sample to the series [name], in run order; in the
   traced run, to [name#u] while spans are off. *)
let sample name x =
  let name = if !trace_run && not !tracing then name ^ "#u" else name in
  push (get_series name) x

(* Forgets every sample taken so far except the set-up times. *)
let drop_samples () =
  Hashtbl.iter
    (fun name s -> if not (String.ends_with ~suffix:"setup" name) then s.len <- 0)
    series_tbl

(* ---- per-layer values ------------------------------------------------------- *)

let values : (string, float) Hashtbl.t = Hashtbl.create 32
let set_value name x = Hashtbl.replace values name x

let add_value name x =
  Hashtbl.replace values name
    (x +. Option.value ~default:0. (Hashtbl.find_opt values name))

(* ---- operations and output checks ----------------------------------------- *)

(* Every operation (a solve, a served request) counts once in
   [attempted] under its kind, and so does every whole-run check (kind
   [check]).  An operation is ok when it succeeded (the solve converged,
   the request was served) and its outputs passed their checks; an
   output that fails its check also makes the run incorrect.  ok_frac is
   the lowest ok / attempted over the kinds, so a few solves that do not
   converge are not diluted by many passing requests or checks. *)
type tally = { mutable attempted : int; mutable failed : int }

let kinds : (string, tally) Hashtbl.t = Hashtbl.create 4
let incorrect = ref 0
let failures = ref []

let tally ~kind name ok =
  let t =
    match Hashtbl.find_opt kinds kind with
    | Some t -> t
    | None ->
        let t = { attempted = 0; failed = 0 } in
        Hashtbl.replace kinds kind t;
        t
  in
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    if List.length !failures < 20 then failures := name :: !failures
  end

(* One operation of [kind]: [succeeded] is its outcome, [checks_ok]
   whether its outputs passed their checks. *)
let operation ~kind name ~succeeded ~checks_ok =
  if not checks_ok then incr incorrect;
  tally ~kind name (succeeded && checks_ok)

(* A whole-run check. *)
let check name ok =
  if not ok then incr incorrect;
  tally ~kind:"check" name ok

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_floats a b =
  Array.length a = Array.length b && Array.for_all2 same_bits a b

(* ---- spans ------------------------------------------------------------------ *)

type span = {
  name : string;
  t0 : int;
  mutable t1 : int;
  parent : int;  (** index of the parent span, -1 for a root *)
  op : int;
}

let spans = ref []  (* latest first *)
let n_spans = ref 0
let current = ref (-1)

(* Records a finished (or, with [t1 = 0], an open) span; returns its
   index. *)
let add_span name ~op ~parent t0 t1 =
  spans := { name; t0; t1; parent; op } :: !spans;
  incr n_spans;
  !n_spans - 1

(* [span name ~op f] runs [f], recording it as a child of the enclosing
   span when tracing.  Single-writer: each phase records from one
   domain only. *)
let span name ~op f =
  if not !tracing then f ()
  else begin
    let parent = !current in
    let i = add_span name ~op ~parent (now_ns ()) 0 in
    let sp = List.hd !spans in
    current := i;
    Fun.protect
      ~finally:(fun () ->
        sp.t1 <- now_ns ();
        current := parent)
      f
  end

(* ---- process facts ---------------------------------------------------------- *)

(* VmHWM: the process's peak resident set, in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
    | _ -> scan ()
    | exception End_of_file -> 0
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) scan in
  float_of_int kb /. 1024.

(* Words allocated by [f ()] on this domain, minor and direct-major. *)
let words_of f =
  let a = Gc.quick_stat () in
  let r = f () in
  let b = Gc.quick_stat () in
  let w =
    b.Gc.minor_words -. a.Gc.minor_words +. (b.Gc.major_words -. a.Gc.major_words)
    -. (b.Gc.promoted_words -. a.Gc.promoted_words)
  in
  (r, w)

(* ---- the record ------------------------------------------------------------- *)

let write_record path ~workload ~trace ~wall_s =
  let open Serve.Json in
  let int i = Num (float_of_int i) in
  let series =
    List.rev !series_order
    |> List.filter_map (fun name ->
           let s = Hashtbl.find series_tbl name in
           if s.len = 0 then None
           else Some (name, List (List.init s.len (fun i -> Num s.data.(i)))))
  in
  let vals =
    Hashtbl.fold (fun k v acc -> (k, Num v) :: acc) values [] |> List.sort compare
  in
  let spans =
    List.rev_map
      (fun s -> List [ Str s.name; int s.t0; int s.t1; int s.parent; int s.op ])
      !spans
  in
  let record =
    Obj
      [
        ("workload", Str workload);
        ("trace", Bool trace);
        ("wall_s", Num wall_s);
        ("peak_rss_mb", Num (peak_rss_mb ()));
        ("kinds", Obj (Hashtbl.fold (fun k t acc -> (k, List [ int t.attempted; int t.failed ]) :: acc) kinds []));
        ("incorrect", int !incorrect);
        ("failures", List (List.rev_map (fun f -> Str f) !failures));
        ("series", Obj series);
        ("values", Obj vals);
        ("spans", List spans);
      ]
  in
  let oc = open_out path in
  output_string oc (to_string record);
  close_out oc
