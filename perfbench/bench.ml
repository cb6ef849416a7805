(* One measured run of a benchmark workload.  run.py generates the
   inputs from the seed, builds this with --profile release, runs it and
   reduces the record it writes (see NOTES.md).

     bench.exe --workload size|signoff|serve --seeds FILE --netlist FILE
               --schedule FILE --seconds S --trace 0|1 --out FILE

   Each workload runs its main phase for most of the run and two short
   side phases for the rest, so that every run reports every end-to-end
   metric: the main phase owns the workload's own metrics, the side
   phases measure the others at a small fixed scale. *)

open Obs

(* ---- build guard ------------------------------------------------------------ *)

(* Words one independent fwd+rev allocates in a release build of the
   seed code: the sweeps are allocation-free once the kernels inline,
   and [Gc.quick_stat] itself boxes a few words. *)
let committed_sweep_words = 64.

(* Computed float arguments to an in-place kernel allocate at every
   call unless the call inlined; the dev profile's -opaque blocks
   cross-library inlining. *)
let kernels_inlined () =
  let out = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout 2 in
  Bigarray.Array1.fill out 0.;
  let x = Sys.opaque_identity 0.5 in
  Gc.full_major ();
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    Statdelay.Clark.add_into ~mu_a:(x +. 0.5) ~var_a:(x *. 0.2) ~mu_b:(x +. 1.5)
      ~var_b:(x *. 0.4) out 0
  done;
  ignore (Sys.opaque_identity (Statdelay.Clark.vget out 0 +. Statdelay.Clark.vget out 1));
  Gc.minor_words () -. w0 < 64.

(* Refuses to time a build whose kernels are not inlined. *)
let build_guard () =
  let net =
    Circuit.Generate.random_dag { Circuit.Generate.default_spec with n_gates = 2_000; seed = 1 }
  in
  let arena = Sta.Arena.create net in
  let b = { Sweeps.net; arena; carena = arena; sizes = Circuit.Netlist.min_sizes net } in
  Sweeps.fwd_rev b arena;
  let _, w = words_of (fun () -> for _ = 1 to 10 do Sweeps.fwd_rev b arena done) in
  let words = w /. 10. in
  let inlined = kernels_inlined () in
  if (not inlined) || words > committed_sweep_words then begin
    Printf.eprintf
      "bench: refusing to time this build: kernels inlined %b, fwd+rev words/eval %.1f \
       (committed %.0f).  Build with --profile release.\n"
      inlined words committed_sweep_words;
    exit 3
  end

(* ---- inputs ----------------------------------------------------------------- *)

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | l -> go (if String.trim l = "" then acc else l :: acc)
    | exception End_of_file -> List.rev acc
  in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> go [])

(* The seeds file holds one generator seed per circuit; the schedule
   the two DAG seeds and the length of a block of its fixed mix, then
   one request line each. *)
let size_seeds path = Array.of_list (List.map int_of_string (read_lines path))

let schedule path =
  match read_lines path with
  | header :: lines ->
      let dag_seeds, block =
        Scanf.sscanf header "dag_seeds %d %d block %d" (fun a b n -> ((a, b), n))
      in
      (dag_seeds, block, Array.of_list lines)
  | [] -> failwith "empty serve schedule"

type inputs = { seeds : string; netlist : string; schedule : string }

(* ---- phases ----------------------------------------------------------------- *)

(* A phase is set up before the clock starts, then stepped: [step]
   does one short unit of its work, [finish] its whole-run checks. *)
type phase = {
  mutable step : unit -> unit;
  finish : unit -> unit;
  share : float;  (** its share of the measured time *)
  mutable spent : int;  (** ns stepped so far *)
}

let setup_series main = if main then "setup" else "probe_setup"

let solve_phase ~main ~inputs =
  let seeds = size_seeds inputs.seeds in
  let seeds = if main then seeds else [| seeds.(0) |] in
  let circuits =
    Solves.setup ~series:(setup_series main) ~seeds ~reps:(if main then 50 else 1)
  in
  (Solves.stepper circuits ~stride:3, ignore)

let sweep_phase ~main ~inputs =
  let path = inputs.netlist in
  let b = Sweeps.setup ~series:(setup_series main) ~path ~reps:(if main then 5 else 1) in
  if !trace_run then Sweeps.layer_values b;
  let built = ref (Some b) in
  (Sweeps.stepper b, fun () -> Sweeps.final_checks built ~path)

(* A serve step is one block of the schedule: 60 requests, about a
   sixth of a second of work. *)
let serve_phase ~main ~inputs =
  let dag_seeds, block, entries = schedule inputs.schedule in
  let nets = Serving.circuits ~dag_seeds in
  Util.Instr.enable ();
  let s =
    Serving.setup ~series:(setup_series main) ~nets ~entries ~reps:(if main then 5 else 1)
  in
  if not !trace_run then Util.Instr.disable ();
  set_value "block_requests" (float_of_int block);
  ((fun () -> Serving.burst s ~count:block), fun () -> Serving.finish s)

(* The main phase gets this share of the measured time, the two side
   phases split the rest. *)
let main_share = 0.6

(* Steps the phases interleaved for [seconds] of stepping, always the
   one furthest behind its share, so every phase samples the whole run
   and a slow spell of the host hits all of them alike.  When the phase
   changes, the major GC cycle is finished first, so a phase never pays
   for the garbage of the one before it, as it would not in a process
   of its own; these collections are not counted in [seconds].

   In the traced run every other step of the main phase (the first in
   [phases]) runs without spans, so reduce.py can set its samples
   against the traced ones of the same process. *)
let run_phases phases ~seconds =
  (* One untimed step each first: caches fill and lazy set-up finishes. *)
  List.iter (fun p -> p.step ()) phases;
  drop_samples ();
  let budget = int_of_float (seconds *. 1e9) and stepped = ref 0 in
  let main = List.hd phases and main_steps = ref 0 and untraced = ref 0 in
  let last = ref main in
  while !stepped < budget do
    let behind p = float_of_int p.spent /. p.share in
    let p = List.fold_left (fun a p -> if behind p < behind a then p else a) main phases in
    if p != !last then Gc.major ();
    last := p;
    tracing := !trace_run && not (p == main && !main_steps mod 2 = 1);
    if p == main then incr main_steps;
    let t0 = now_ns () in
    p.step ();
    let d = now_ns () - t0 in
    p.spent <- p.spent + d;
    stepped := !stepped + d;
    if !trace_run && not !tracing then untraced := !untraced + d
  done;
  tracing := !trace_run;
  set_value "untraced_s" (float_of_int !untraced /. 1e9);
  (* Release what the steps hold before the whole-run checks run. *)
  List.iter (fun p -> p.step <- ignore) phases;
  List.iter (fun p -> p.finish ()) phases

let run_workload workload ~inputs ~seconds =
  let phase share (step, finish) = { step; finish; share; spent = 0 } in
  let side = (1. -. main_share) /. 2. in
  let solve m = phase (if m then main_share else side) (solve_phase ~main:m ~inputs)
  and sweep m = phase (if m then main_share else side) (sweep_phase ~main:m ~inputs)
  and serve m = phase (if m then main_share else side) (serve_phase ~main:m ~inputs) in
  let phases =
    match workload with
    | "size" -> [ solve true; sweep false; serve false ]
    | "signoff" -> [ sweep true; solve false; serve false ]
    | "serve" -> [ serve true; solve false; sweep false ]
    | w -> failwith ("unknown workload " ^ w)
  in
  run_phases phases ~seconds

(* Allocation per Incr analysis, from the [incr.*] timers. *)
let incr_words () =
  let snap = Util.Instr.snapshot ~all:true () in
  let words name =
    match List.assoc_opt name snap.timers with
    | Some t -> float_of_int t.Util.Instr.minor_words
    | None -> 0.
  in
  let analyses =
    Option.value ~default:0 (List.assoc_opt "incr.analyze" snap.counters)
  in
  set_value "incr_words" (words "incr.forward" +. words "incr.reverse");
  set_value "incr_analyses" (float_of_int analyses)

let () =
  let workload = ref "" and seeds = ref "" and netlist = ref "" and sched = ref ""
  and seconds = ref 10. and trace = ref 0 and out = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "size|signoff|serve");
      ("--seeds", Arg.Set_string seeds, "size circuit seeds");
      ("--netlist", Arg.Set_string netlist, ".bench netlist of the sweep phase");
      ("--schedule", Arg.Set_string sched, "serve schedule");
      ("--seconds", Arg.Set_float seconds, "measured seconds");
      ("--trace", Arg.Set_int trace, "0|1");
      ("--out", Arg.Set_string out, "record file");
    ]
    (fun a -> raise (Arg.Bad a))
    "bench.exe --workload W --seeds F --netlist F --schedule F --seconds S --trace 0|1 --out F";
  build_guard ();
  trace_run := !trace = 1;
  tracing := !trace_run;
  if !trace_run then Util.Instr.enable ();
  Util.Instr.reset ();
  let t0 = now_ns () in
  let inputs = { seeds = !seeds; netlist = !netlist; schedule = !sched } in
  run_workload !workload ~inputs ~seconds:!seconds;
  let wall_s = float_of_int (now_ns () - t0) /. 1e9 in
  if !trace_run then incr_words ();
  write_record !out ~workload:!workload ~trace:!trace_run ~wall_s
