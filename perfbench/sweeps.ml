(* Signoff: load a .bench netlist with the loader [statsize --bench]
   uses, build the independent and the p = 17 canonical arena, then
   interleave full fwd+rev sweeps on each with 32-trial Monte Carlo
   chunks.

   Series: [setup] (s, load plus both arenas), [sweep], [canon_sweep]
   and [mc_chunk] (ms each). *)

open Obs

let model = Circuit.Sigma_model.paper_default
let canon_varmodel = Solves.grid_varmodel
let mc_trials = 32

type built = {
  net : Circuit.Netlist.t;
  arena : Sta.Arena.t;
  carena : Sta.Arena.t;
  sizes : float array;
}

let library = Circuit.Cell.Library.default ()

let load_with parse path =
  match parse ~library path with
  | Ok net -> net
  | Error e -> failwith (Format.asprintf "%s: %a" path Circuit.Bench_format.pp_error e)

let load path =
  let net, words =
    words_of (fun () -> span "circuit.load" ~op:0 (fun () ->
      load_with (fun ~library p -> Circuit.Bench_format.parse_file ~library p) path))
  in
  set_value "circuit.load_words" words;
  net

let build path =
  span "signoff.setup" ~op:0 (fun () ->
      let net = load path in
      let arena = span "sta.arena_create" ~op:0 (fun () -> Sta.Arena.create net) in
      let carena =
        span "sta.canon_arena_create" ~op:0 (fun () ->
            Sta.Arena.create ~varmodel:canon_varmodel net)
      in
      { net; arena; carena; sizes = Circuit.Netlist.min_sizes net })

(* Set-up: [reps] full rebuilds from the file, each after a compaction
   so none pays for freeing its predecessor; keeps the last. *)
let setup ~series ~path ~reps =
  let last = ref None in
  for _ = 1 to reps do
    last := None;
    Gc.compact ();
    let t0 = now_ns () in
    let b = build path in
    sample series (float_of_int (now_ns () - t0) /. 1e9);
    last := Some b
  done;
  Option.get !last

(* Bytes one fwd+rev sweep moves, computed from the plane dimensions:
   every float64 plane, the int32 index columns and the activity bytes. *)
let arena_bytes (a : Sta.Arena.t) =
  let v (p : Sta.Arena.vec) = 8 * Bigarray.Array1.dim p in
  let iv (p : Sta.Arena.ivec) = 4 * Bigarray.Array1.dim p in
  let open Sta.Arena in
  v a.sizes + v a.load + v a.del + v a.arr + v a.pre + v a.opnd + v a.fosz
  + v a.pp + v a.adj + v a.dmu_t + v a.fadj + v a.grad + v a.asens + v a.presens
  + v a.sadj + v a.fsadj + v a.cpp + iv a.fi_b + iv a.fo_c + Bytes.length a.active

let fwd_rev b arena =
  Sta.Ssta.forward_raw ~model arena ~sizes:b.sizes;
  Sta.Ssta.reverse_raw ~model arena ~d_mu:1. ~d_var:0.

let moments arena = (Sta.Arena.circuit_mu arena, Sta.Arena.circuit_var arena)

let grad_copy (a : Sta.Arena.t) =
  Array.init (Bigarray.Array1.dim a.Sta.Arena.grad) (Bigarray.Array1.get a.Sta.Arena.grad)

let c_clark = Util.Instr.counter "clark.max2"
let c_canon = Util.Instr.counter "canon.max2"

(* Exact kernel counts and allocation of one fwd+rev on each arena, and
   the arenas' computed sizes.  Traced run only: the counters need
   [Util.Instr] on. *)
let layer_values b =
  let count c f =
    let before = Util.Instr.count c in
    f ();
    float_of_int (Util.Instr.count c - before)
  in
  set_value "statdelay.clark_max2" (count c_clark (fun () -> fwd_rev b b.arena));
  set_value "statdelay.canon_max2" (count c_canon (fun () -> fwd_rev b b.carena));
  let words arena =
    fwd_rev b arena;
    snd (words_of (fun () -> for _ = 1 to 4 do fwd_rev b arena done)) /. 4.
  in
  set_value "sta.sweep_words" (words b.arena);
  set_value "sta.canon_sweep_words" (words b.carena);
  let mib a = float_of_int (arena_bytes a) /. 1048576. in
  set_value "sta.arena_mb" (mib b.arena);
  set_value "sta.canon_arena_mb" (mib b.carena);
  set_value "sweep.n_gates" (float_of_int (Circuit.Netlist.n_gates b.net))

(* One step: two independent fwd+rev sweeps, two canonical ones, and
   every [mc_every]-th step two 32-trial chunks (a chunk costs about
   three sweep pairs).  The second of each pair runs on the caches the
   first warmed, as in a batch of back-to-back sweeps; whatever ran
   before the step decides how cold the first is.  Each sweep's moments
   must equal the first sweep's, bit for bit, and every chunk must be
   finite; [final_checks] counts each of these once for the run. *)
let mc_every = 4
let sweeps_same = ref true
let chunks_finite = ref true

let stepper b =
  fwd_rev b b.arena;
  let ref_i = moments b.arena in
  fwd_rev b b.carena;
  let ref_c = moments b.carena in
  let same (m1, v1) (m2, v2) = same_bits m1 m2 && same_bits v1 v2 in
  let k = ref 0 in
  let timed series span_name ~op f =
    let t0 = now_ns () in
    let r = span span_name ~op f in
    sample series (ms_between t0 (now_ns ()));
    r
  in
  fun () ->
    let op = !k in
    incr k;
    for _ = 1 to 2 do
      timed "sweep" "sta.sweep" ~op (fun () -> fwd_rev b b.arena);
      if not (same (moments b.arena) ref_i) then sweeps_same := false
    done;
    for _ = 1 to 2 do
      timed "canon_sweep" "sta.canon_sweep" ~op (fun () -> fwd_rev b b.carena);
      if not (same (moments b.carena) ref_c) then sweeps_same := false
    done;
    if op mod mc_every = 0 then
      for j = 0 to 1 do
        let xs =
          timed "mc_chunk" "sta.mcsta_chunk" ~op (fun () ->
              Sta.Mcsta.sample ~arena:b.arena ~seed:((2 * op) + j + 1) ~model b.net
                ~sizes:b.sizes ~n:mc_trials)
        in
        if not (Array.for_all Float.is_finite xs) then chunks_finite := false
      done

(* Whole-run checks: every sweep returned the first sweep's moments and
   every chunk was finite; a copy loaded with [Bench_stream] reproduces
   both arenas' moments and gradients bit for bit; Monte Carlo samples
   do not depend on the batch size.  [built] is emptied first, so the
   copy never shares the heap with the original. *)
let final_checks built ~path =
  check "signoff sweeps repeat their moments" !sweeps_same;
  check "signoff mc chunks finite" !chunks_finite;
  let reference () =
    let b = Option.get !built in
    built := None;
    fwd_rev b b.arena;
    let mi = moments b.arena and gi = grad_copy b.arena in
    fwd_rev b b.carena;
    let mc = moments b.carena and gc = grad_copy b.carena in
    let n = 16 in
    let mc16 = Sta.Mcsta.sample ~batch:16 ~seed:7 ~model b.net ~sizes:b.sizes ~n in
    let mc4 = Sta.Mcsta.sample ~batch:4 ~seed:7 ~model b.net ~sizes:b.sizes ~n in
    check "signoff mcsta batch independence" (same_floats mc16 mc4);
    (mi, gi, mc, gc)
  in
  let mi, gi, mc, gc = reference () in
  Gc.compact ();
  let net = load_with (fun ~library p -> Circuit.Bench_stream.parse_file ~library p) path in
  let s =
    {
      net;
      arena = Sta.Arena.create net;
      carena = Sta.Arena.create ~varmodel:canon_varmodel net;
      sizes = Circuit.Netlist.min_sizes net;
    }
  in
  let same_m (m1, v1) (m2, v2) = same_bits m1 m2 && same_bits v1 v2 in
  fwd_rev s s.arena;
  check "signoff stream loader, independent arena"
    (same_m (moments s.arena) mi && same_floats (grad_copy s.arena) gi);
  fwd_rev s s.carena;
  check "signoff stream loader, canonical arena"
    (same_m (moments s.carena) mc && same_floats (grad_copy s.carena) gc)
