open Circuit
open Statdelay

(* ---- instrumentation -------------------------------------------------------- *)

let c_analyze = Util.Instr.counter "incr.analyze"
let c_cache_hit = Util.Instr.counter "incr.cache_hit"
let c_full_sweep = Util.Instr.counter "incr.full_sweep"
let c_reeval = Util.Instr.counter "incr.gates_reevaluated"
let c_cutoff = Util.Instr.counter "incr.cutoff"
let c_gradient = Util.Instr.counter "incr.gradient"
let c_p1_reused = Util.Instr.counter "incr.phase1_reused"
let c_p1_recomputed = Util.Instr.counter "incr.phase1_recomputed"
let c_partials_reused = Util.Instr.counter "incr.partials_reused"
let t_forward = Util.Instr.timer "incr.forward"
let t_reverse = Util.Instr.timer "incr.reverse"

type counters = {
  analyzes : int;
  cache_hits : int;
  full_sweeps : int;
  gates_reevaluated : int;
  cutoffs : int;
  gradients : int;
  phase1_reused : int;
  phase1_recomputed : int;
  partials_reused : int;
}

(* Per-engine totals, updated only from serial sections (unit tests read
   them without enabling the global Instr registry). *)
type stats = {
  mutable s_analyzes : int;
  mutable s_cache_hits : int;
  mutable s_full_sweeps : int;
  mutable s_reeval : int;
  mutable s_cutoffs : int;
  mutable s_gradients : int;
  mutable s_p1_reused : int;
  mutable s_p1_recomputed : int;
  mutable s_partials_reused : int;
}

(* ---- gradient reuse slots --------------------------------------------------- *)

(* One reuse history per distinct seed root: the previous reverse sweep's
   adjoints and phase-1 products (per-operand fold adjoints and the
   gate-delay mean adjoints), plus the engine version they were computed
   against — all stored as plane copies (same interleaved Bigarray
   layout as the arena's), blitted in and out, so slot maintenance
   allocates nothing after engine creation.  Sizing.Engine
   differentiates with the two constant basis seeds (1,0) and (0,1), so
   each gets a stable slot; roots that vary per call (e.g. a direct
   mu+3sigma seed) never pass the bitwise-adjoint guard and just cycle
   through the LRU slots.  Like everything inside the engine, slot
   planes are indexed by the flat view's new (level-major) gate ids. *)
type slot = {
  mutable root_mu_bits : int64;
  mutable root_var_bits : int64;
  mutable s_valid : bool;
  mutable s_version : int;
  s_adj : Arena.vec;  (* per gate: final arrival adjoint pairs *)
  s_active : Bytes.t;
  s_dmu : Arena.vec;  (* per gate: gate-delay mean adjoint *)
  s_fan : Arena.vec;  (* fold-slot pair plane: per-operand adjoints *)
  mutable s_bumps : int;
      (** [t.stamp_bumps] at save time: when many stamps moved since, the
          per-gate reuse checks cannot succeed and are skipped wholesale *)
  mutable s_used : int;  (** LRU tick *)
}

let max_slots = 4

type t = {
  net : Netlist.t;
  model : Sigma_model.t;
  pool : Util.Pool.t option;
  n : int;
  (* Cached state of the last analyze lives in the arena's planes: sizes,
     loads, delay moments, arrivals and the per-gate fold prefixes
     ([pre]).  The engine owns the arena exclusively — its [pp] plane
     doubles as the point-keyed Clark-partials cache below, so nothing
     else may run [Arena.reverse] on it.  Every per-gate array in this
     record is indexed by new (level-major) gate id, matching the
     arena. *)
  a : Arena.t;
  mutable f_valid : bool;
      (* cached forward state may serve as a delta base; cleared by
         [invalidate] *)
  mutable initialized : bool;
      (* the planes hold a completed analysis (kept across
         invalidations, so change stamps stay meaningful; cleared only
         by a pass that raised midway) *)
  (* Change tracking.  [version] counts state-changing analyzes;
     [stamp_arrival.(g)] / [stamp_local.(g)] record the last version at
     which gate [g]'s arrival / own delay+load changed value. *)
  mutable version : int;
  stamp_arrival : int array;
  stamp_local : int array;
  mutable stamp_bumps : int;  (* total arrival-stamp writes, ever *)
  (* Seed-independent Clark partials of each gate's fanin fold, stored in
     the arena's [pp] plane (the gate's fold-slot segment), valid while
     every gate-fanin arrival is unchanged since [pc_version.(g)].  Lets
     the second basis-seed gradient at the same point (and any gate whose
     input cone is clean) replay the reverse chain with eight multiplies
     per operand instead of re-running the Clark operators.  Empty,
     like the arena's adjoint planes, until the first gradient. *)
  mutable pc_version : int array;
  mutable pc_hit : bool array;
  (* PO-fold partials (the [pp] plane's trailing segment), valid for the
     current version only. *)
  mutable po_version : int;
  (* Scratch for one sweep. *)
  osz : float array;
      (* old-id copy of the sizes last swept: a delta is a sequential
         diff against it, and only the changed entries are scattered
         into the arena's new-id sizes plane *)
  dirty : Bytes.t;  (* new-id mask of the gates still to re-evaluate *)
  chg : Bytes.t;  (* per new id: change bits of a pooled re-evaluation *)
  todo : int array;  (* per-level worklist (dirty subset / phase 1) *)
  (* Gradient reuse. *)
  mutable slots : slot list;
  mutable use_tick : int;
  st : stats;
}

let create ?pool ?varmodel ~model net =
  let n = Netlist.n_gates net in
  {
    net;
    model;
    pool;
    n;
    a = Arena.create ?varmodel net;
    f_valid = false;
    initialized = false;
    version = 0;
    stamp_arrival = Array.make n 0;
    stamp_local = Array.make n 0;
    stamp_bumps = 0;
    pc_version = [||];
    pc_hit = [||];
    po_version = -1;
    osz = Array.make n 0.;
    dirty = Bytes.make (max 1 n) '\000';
    chg = Bytes.make (max 1 n) '\000';
    todo = Array.make (max 1 n) 0;
    slots = [];
    use_tick = 0;
    st =
      {
        s_analyzes = 0;
        s_cache_hits = 0;
        s_full_sweeps = 0;
        s_reeval = 0;
        s_cutoffs = 0;
        s_gradients = 0;
        s_p1_reused = 0;
        s_p1_recomputed = 0;
        s_partials_reused = 0;
      };
  }

let netlist t = t.net
let arena t = t.a

(* Canonical (shared-source) arenas bypass the incremental machinery:
   the change-tracking invariants below (stamps, partials caches,
   gradient-reuse slots) are proven only for the independent sweeps, and
   a shared parameter couples every gate's arrival through its
   sensitivity row anyway, so a local size change is never local.  With
   [p > 0] each analyze that actually changes sizes runs a full
   {!Arena.forward} and each gradient a full {!Arena.reverse}; only the
   bitwise same-sizes cache hit survives. *)
let canonical t = Arena.n_params t.a > 0

let counters t =
  {
    analyzes = t.st.s_analyzes;
    cache_hits = t.st.s_cache_hits;
    full_sweeps = t.st.s_full_sweeps;
    gates_reevaluated = t.st.s_reeval;
    cutoffs = t.st.s_cutoffs;
    gradients = t.st.s_gradients;
    phase1_reused = t.st.s_p1_reused;
    phase1_recomputed = t.st.s_p1_recomputed;
    partials_reused = t.st.s_partials_reused;
  }

(* Cache hits re-evaluate nothing (every gradient call analyzes its own
   point first), so they are left out of the denominator. *)
let dirty_fraction t =
  let evaluated = t.st.s_analyzes - t.st.s_cache_hits in
  if evaluated = 0 || t.n = 0 then 0.
  else float_of_int t.st.s_reeval /. (float_of_int evaluated *. float_of_int t.n)

let invalidate t = t.f_valid <- false

(* ---- forward sweep ---------------------------------------------------------- *)

let bits = Int64.bits_of_float

(* Bitwise equality of two floats without a C call: equal non-zero
   values share their bits, and two zeros differ in sign iff their
   reciprocals do.  A NaN never compares equal, so it always counts as
   a change — conservative: over-marking only re-evaluates more. *)
let[@inline] same a b = a = b && (a <> 0. || 1. /. a = 1. /. b)

let pooled_for t n body =
  match t.pool with
  | Some p when Util.Pool.size p > 1 && n >= 2 * Arena.level_grain ->
      Util.Pool.parallel_for ~grain:Arena.level_grain ~align:8 p ~n body
  | _ ->
      for i = 0 to n - 1 do
        body i
      done

(* Dirty-mask bytes: bit 0 set when the gate must be re-evaluated (a
   fanin arrival changed: ['\001'], set by [settle]), and [local_dirty]
   (bits 0 and 1) when its own size or load may have changed too.  Only
   a [local_dirty] gate needs its load and delay recomputed: for the
   others both are functions of unchanged sizes, so the cached moments
   are the recomputed ones bit for bit and [Arena.eval_fold] alone gives
   the full kernel's arrival. *)
let local_dirty = '\003'

(* Change bits reported by [eval_tracked]. *)
let arrival_changed = 1
let local_changed = 2

(* Re-evaluate gate [id] (a new id) through the forward sweep's own
   kernel — the same operations as a from-scratch sweep, by
   construction — and report what changed against the values it
   overwrote.  [s0] / [f0] are the staged window's origins
   (Arena.eval_gate).  Per-gate slot writes only: safe on the pool. *)
let eval_tracked t s0 f0 id =
  let a = t.a in
  let oam = Clark.vget a.Arena.arr (2 * id)
  and oav = Clark.vget a.Arena.arr ((2 * id) + 1) in
  let local =
    if Bytes.unsafe_get t.dirty id <> local_dirty then begin
      Arena.eval_fold a s0 id;
      0
    end
    else begin
      let ol = Clark.vget a.Arena.load id
      and odm = Clark.vget a.Arena.del (2 * id)
      and odv = Clark.vget a.Arena.del ((2 * id) + 1) in
      Arena.eval_gate a t.model s0 f0 id;
      if
        t.initialized
        && same ol (Clark.vget a.Arena.load id)
        && same odm (Clark.vget a.Arena.del (2 * id))
        && same odv (Clark.vget a.Arena.del ((2 * id) + 1))
      then 0
      else local_changed
    end
  in
  if
    t.initialized
    && same oam (Clark.vget a.Arena.arr (2 * id))
    && same oav (Clark.vget a.Arena.arr ((2 * id) + 1))
  then local
  else local lor arrival_changed

(* Serial: stamp a re-evaluated gate's changes and mark the consumers
   of a changed arrival dirty (branch-free: [lor] keeps a
   [local_dirty] mark).  True when the gate was cut off. *)
let settle t id changes =
  if changes land local_changed <> 0 then t.stamp_local.(id) <- t.version;
  if changes land arrival_changed <> 0 then begin
    t.stamp_arrival.(id) <- t.version;
    t.stamp_bumps <- t.stamp_bumps + 1;
    let fl = t.a.Arena.flat and fo_c = t.a.Arena.fo_c and dirty = t.dirty in
    for j = fl.Netlist.fo_off.(id) to fl.Netlist.fo_off.(id + 1) - 1 do
      let c = Int32.to_int (Bigarray.Array1.unsafe_get fo_c j) in
      Bytes.unsafe_set dirty c
        (Char.unsafe_chr (Char.code (Bytes.unsafe_get dirty c) lor 1))
    done;
    false
  end
  else true

(* Dirty gates of one level further apart than this start a new staging
   segment: staging a clean gate in between costs its operand gathers,
   a new segment two more C calls. *)
let segment_gap = 8

(* Re-evaluate every dirty gate, level by level, clearing the mask as it
   goes.  Each level's dirty subset is staged and evaluated like a
   sweep's blocks: serially in segments of nearby dirty gates (at most
   [Arena.stage_block] ids wide; consumer sizes are staged only for a
   segment holding a [local_dirty] gate), or on the pool with the
   level's dirty span staged at once.  Counts the re-evaluated gates;
   returns the number cut off (re-evaluated to their cached arrival, so
   their consumers stay clean). *)
let sweep_dirty t =
  let a = t.a in
  let fl = a.Arena.flat in
  let fi_off = fl.Netlist.fi_off and fo_off = fl.Netlist.fo_off in
  let lvl_off = fl.Netlist.lvl_off in
  let todo = t.todo and dirty = t.dirty in
  let cuts = ref 0 and reeval = ref 0 in
  for l = 0 to Array.length lvl_off - 2 do
    (* The level's dirty subset, in ascending new-id order (within a
       level that coincides with ascending old-id order); a branch-free
       compaction, as the mask is dense in a wide cone. *)
    let lo = lvl_off.(l) and hi = lvl_off.(l + 1) in
    let k = ref 0 in
    for id = lo to hi - 1 do
      Array.unsafe_set todo !k id;
      k := !k + (Char.code (Bytes.unsafe_get dirty id) land 1)
    done;
    let k = !k in
    reeval := !reeval + k;
    (match t.pool with
    | Some p when Util.Pool.size p > 1 && k >= 2 * Arena.level_grain ->
        let b0 = todo.(0) and b1 = todo.(k - 1) + 1 in
        Arena.stage_fanin a b0 b1;
        Arena.stage_fanout a b0 b1;
        let s0 = fi_off.(b0) and f0 = fo_off.(b0) in
        Util.Pool.parallel_for ~grain:Arena.level_grain ~align:8 p ~n:k (fun i ->
            let id = Array.unsafe_get todo i in
            Bytes.unsafe_set t.chg id (Char.unsafe_chr (eval_tracked t s0 f0 id)));
        for i = 0 to k - 1 do
          let id = todo.(i) in
          if settle t id (Char.code (Bytes.unsafe_get t.chg id)) then incr cuts
        done
    | _ ->
        let i = ref 0 in
        while !i < k do
          let b0 = todo.(!i) in
          let local = ref (Bytes.unsafe_get dirty b0 = local_dirty) in
          let j = ref (!i + 1) in
          while
            !j < k
            && todo.(!j) - todo.(!j - 1) <= segment_gap
            && todo.(!j) < b0 + Arena.stage_block
          do
            if Bytes.unsafe_get dirty todo.(!j) = local_dirty then local := true;
            incr j
          done;
          let b1 = todo.(!j - 1) + 1 in
          Arena.stage_fanin a b0 b1;
          if !local then Arena.stage_fanout a b0 b1;
          let s0 = fi_off.(b0) and f0 = fo_off.(b0) in
          for q = !i to !j - 1 do
            let id = todo.(q) in
            if settle t id (eval_tracked t s0 f0 id) then incr cuts
          done;
          i := !j
        done);
    Bytes.unsafe_fill dirty lo (hi - lo) '\000'
  done;
  Arena.fold_pos a;
  t.st.s_reeval <- t.st.s_reeval + !reeval;
  Util.Instr.add c_reeval !reeval;
  !cuts

(* Seed the dirty set from the delta against [t.osz]: each changed gate,
   plus every gate fanin of it — the driver's load (hence delay and
   arrival) depends on the consumer's size.  Copies the changed sizes
   into [t.osz] and the arena's new-id sizes plane; false when nothing
   changed.  Only the changed entries are validated (the others equal
   sizes validated before); an invalid one drops the seeds, leaves the
   engine to a full sweep and raises [Netlist.check_sizes]' error for
   the whole vector, whose lowest offending id is among them. *)
let seed_delta t (sizes : float array) =
  let fl = t.a.Arena.flat in
  let perm = fl.Netlist.perm in
  let any = ref false in
  for i = 0 to t.n - 1 do
    let s = Array.unsafe_get sizes i in
    if not (same s (Array.unsafe_get t.osz i)) then begin
      if not (Netlist.size_in_bounds t.net i s) then begin
        Bytes.fill t.dirty 0 (Bytes.length t.dirty) '\000';
        t.f_valid <- false;
        Netlist.check_sizes t.net sizes
      end;
      any := true;
      Array.unsafe_set t.osz i s;
      let id = Array.unsafe_get perm i in
      Clark.vset t.a.Arena.sizes id s;
      Bytes.unsafe_set t.dirty id local_dirty;
      for j = fl.Netlist.fi_off.(id) to fl.Netlist.fi_off.(id + 1) - 1 do
        let e = fl.Netlist.fi_node.(j) in
        if e >= 0 then Bytes.unsafe_set t.dirty e local_dirty
      done
    end
  done;
  !any

(* Every gate dirty, every size copied. *)
let seed_full t (sizes : float array) =
  Array.blit sizes 0 t.osz 0 t.n;
  let inv = t.a.Arena.flat.Netlist.inv_perm in
  for i = 0 to t.n - 1 do
    Clark.vset t.a.Arena.sizes i (Array.unsafe_get sizes (Array.unsafe_get inv i))
  done;
  Bytes.fill t.dirty 0 t.n local_dirty

let cache_hit t =
  t.st.s_cache_hits <- t.st.s_cache_hits + 1;
  Util.Instr.incr c_cache_hit

let count_full_sweep t =
  t.st.s_full_sweeps <- t.st.s_full_sweeps + 1;
  Util.Instr.incr c_full_sweep

(* A pass that raised (a size below 1 reaching the kernel, a pool
   failure) leaves some gates updated and others not: drop the mask,
   and make the next analyze a full sweep that counts every gate as
   changed, so no stale stamp can let the gradient reuse a product. *)
let run_pass t =
  t.version <- t.version + 1;
  t.f_valid <- false;
  match sweep_dirty t with
  | cuts -> cuts
  | exception e ->
      Bytes.fill t.dirty 0 (Bytes.length t.dirty) '\000';
      t.initialized <- false;
      raise e

(* Bring the engine's cached state to [sizes]. *)
let analyze_state t ~sizes =
  if not (t.f_valid && (not (canonical t)) && Array.length sizes = t.n) then
    Netlist.check_sizes t.net sizes;
  t.st.s_analyzes <- t.st.s_analyzes + 1;
  Util.Instr.incr c_analyze;
  Util.Instr.time t_forward @@ fun () ->
  if canonical t then begin
    let i = ref 0 in
    while !i < t.n && same sizes.(!i) t.osz.(!i) do
      incr i
    done;
    if t.f_valid && !i = t.n then cache_hit t
    else begin
      t.f_valid <- false;
      Arena.forward ?pool:t.pool ~model:t.model t.a ~sizes;
      Array.blit sizes 0 t.osz 0 t.n;
      count_full_sweep t;
      t.st.s_reeval <- t.st.s_reeval + t.n;
      Util.Instr.add c_reeval t.n
    end
  end
  else if not t.f_valid then begin
    seed_full t sizes;
    ignore (run_pass t);
    count_full_sweep t
  end
  else if seed_delta t sizes then begin
    let cuts = run_pass t in
    t.st.s_cutoffs <- t.st.s_cutoffs + cuts;
    Util.Instr.add c_cutoff cuts
  end
  else cache_hit t;
  t.f_valid <- true;
  t.initialized <- true

let analyze_raw t ~sizes = analyze_state t ~sizes

let analyze t ~sizes =
  analyze_state t ~sizes;
  Ssta.of_arena t.a

(* ---- reverse sweep ---------------------------------------------------------- *)

let make_vec len =
  let v = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (max 1 len) in
  Bigarray.Array1.fill v 0.;
  v

let fresh_slot t rmu rvar =
  let fs = t.a.Arena.flat.Netlist.fold_slots in
  {
    root_mu_bits = rmu;
    root_var_bits = rvar;
    s_valid = false;
    s_version = 0;
    s_adj = make_vec (2 * t.n);
    s_active = Bytes.make (max 1 t.n) '\000';
    s_dmu = make_vec t.n;
    s_fan = make_vec (2 * fs);
    s_bumps = 0;
    s_used = 0;
  }

let slot_for t ~d_mu ~d_var =
  let rmu = bits d_mu and rvar = bits d_var in
  let slot =
    match
      List.find_opt
        (fun s ->
          Int64.equal s.root_mu_bits rmu && Int64.equal s.root_var_bits rvar)
        t.slots
    with
    | Some s -> s
    | None ->
        if List.length t.slots < max_slots then begin
          let s = fresh_slot t rmu rvar in
          t.slots <- s :: t.slots;
          s
        end
        else begin
          (* Recycle the least recently used slot for this new root. *)
          let s =
            List.fold_left
              (fun a b -> if b.s_used < a.s_used then b else a)
              (List.hd t.slots) t.slots
          in
          s.root_mu_bits <- rmu;
          s.root_var_bits <- rvar;
          s.s_valid <- false;
          s
        end
  in
  t.use_tick <- t.use_tick + 1;
  slot.s_used <- t.use_tick;
  slot

(* Every gate fanin's arrival unchanged since version [limit]? *)
let fanin_clean t limit id =
  let fl = t.a.Arena.flat in
  let ok = ref true in
  for j = fl.Netlist.fi_off.(id) to fl.Netlist.fi_off.(id + 1) - 1 do
    let e = fl.Netlist.fi_node.(j) in
    if e >= 0 && t.stamp_arrival.(e) > limit then ok := false
  done;
  !ok

(* The reverse sweep mirrors the arena reverse sweep phase for phase.
   Phase 2 (the serial fixed-order scatter into the adjoint and gradient
   planes) always runs in full — it is the cheap part, and replaying it
   identically is what keeps incremental gradients bit-identical.
   Phase 1 (the Clark partial replays) is where the time goes; a gate's
   phase-1 products are reused from the slot when provably unchanged:

   - the slot is valid and the gate was active in it,
   - the gate's adjoint is bitwise equal to the slot's (adjoints are
     finalized top-down, so at decision time the adjoint pair is final),
   - the gate's own delay and every fanin arrival are unchanged since
     the slot's version (change stamps).

   Under these conditions a recompute would replay bit-identical
   operations on bit-identical operands, so reuse is exact.

   The Clark partials themselves (seed-independent) live in the arena's
   [pp] plane under a separate per-gate version guard [pc_version]: the
   second basis-seed gradient at the same point replays the multiply
   chain against them without touching a Clark operator. *)
let reverse_core t ~d_mu ~d_var =
  let a = t.a in
  let fl = a.Arena.flat in
  let n = t.n in
  Arena.ensure_adjoint a;
  if Array.length t.pc_version < n then begin
    t.pc_version <- Array.make n (-1);
    t.pc_hit <- Array.make n false
  end;
  Bigarray.Array1.fill a.Arena.adj 0.;
  Bigarray.Array1.fill a.Arena.grad 0.;
  Bytes.fill a.Arena.active 0 (Bytes.length a.Arena.active) '\000';
  (* PO-fold partials: recompute into the pp plane's trailing segment
     only when the engine state moved since they were last taken. *)
  let base = fl.Netlist.po_base in
  let m = Array.length fl.Netlist.po_node in
  if t.po_version <> t.version then begin
    for j = 1 to m - 1 do
      let e = fl.Netlist.po_node.(j) in
      let b = if e >= 0 then 2 * e else (-2 * e) - 2 in
      let src = if e >= 0 then a.Arena.arr else a.Arena.pi in
      Clark.partials_into
        ~mu_a:(Clark.vget a.Arena.pre (2 * (base + j) - 2))
        ~var_a:(Clark.vget a.Arena.pre (2 * (base + j) - 1))
        ~mu_b:(Clark.vget src b)
        ~var_b:(Clark.vget src (b + 1))
        a.Arena.pp (base + j)
    done;
    t.po_version <- t.version
  end;
  (* Backprop the PO fold against the stored partials, then scatter its
     per-operand adjoints in ascending PO order. *)
  Clark.vset a.Arena.fadj (2 * base) d_mu;
  Clark.vset a.Arena.fadj ((2 * base) + 1) d_var;
  for j = m - 1 downto 1 do
    Clark.backprop_apply a.Arena.pp (base + j) a.Arena.fadj ~acc:base
      ~out:(base + j)
  done;
  for i = 0 to m - 1 do
    let e = fl.Netlist.po_node.(i) in
    if e >= 0 then begin
      Clark.vset a.Arena.adj (2 * e)
        (Clark.vget a.Arena.adj (2 * e) +. Clark.vget a.Arena.fadj (2 * (base + i)));
      Clark.vset a.Arena.adj ((2 * e) + 1)
        (Clark.vget a.Arena.adj ((2 * e) + 1)
        +. Clark.vget a.Arena.fadj ((2 * (base + i)) + 1))
    end
  done;
  let slot = slot_for t ~d_mu ~d_var in
  let reused = ref 0 and recomputed = ref 0 and p_hits = ref 0 in
  (* When most arrival stamps moved since the slot was saved, the
     per-gate checks below cannot succeed; skip them wholesale. *)
  let try_reuse = slot.s_valid && t.stamp_bumps - slot.s_bumps <= t.n / 2 in
  let lvl_off = fl.Netlist.lvl_off in
  for l = Array.length lvl_off - 2 downto 0 do
    let lo = lvl_off.(l) and hi = lvl_off.(l + 1) in
    (* Serial reuse-decision pass (cheap comparisons only). *)
    let n_todo = ref 0 in
    for id = lo to hi - 1 do
      let am = Clark.vget a.Arena.adj (2 * id)
      and av = Clark.vget a.Arena.adj ((2 * id) + 1) in
      if am <> 0. || av <> 0. then begin
        Bytes.unsafe_set a.Arena.active id '\001';
        let reusable =
          try_reuse
          && Bytes.unsafe_get slot.s_active id <> '\000'
          && t.stamp_local.(id) <= slot.s_version
          && same am (Clark.vget slot.s_adj (2 * id))
          && same av (Clark.vget slot.s_adj ((2 * id) + 1))
          && fanin_clean t slot.s_version id
        in
        if reusable then begin
          Clark.vset a.Arena.dmu_t id (Clark.vget slot.s_dmu id);
          let fb = fl.Netlist.fi_off.(id) in
          let fk = fl.Netlist.fi_off.(id + 1) - fb in
          for j = 2 * fb to (2 * (fb + fk)) - 1 do
            Clark.vset a.Arena.fadj j (Clark.vget slot.s_fan j)
          done;
          incr reused
        end
        else begin
          t.todo.(!n_todo) <- id;
          incr n_todo;
          incr recomputed
        end
      end
    done;
    (* Phase 1 on the non-reusable subset: bit-identical to the per-gate
       operations of the arena reverse sweep, with the Clark partials
       themselves served from the point-keyed pp cache when the gate's
       input cone is unchanged since they were computed. *)
    pooled_for t !n_todo (fun i ->
        let id = t.todo.(i) in
        let am = Clark.vget a.Arena.adj (2 * id)
        and av = Clark.vget a.Arena.adj ((2 * id) + 1) in
        Clark.vset a.Arena.dmu_t id
          (am
          +. (av *. Sigma_model.dvar_dmu t.model (Clark.vget a.Arena.del (2 * id))));
        let fb = fl.Netlist.fi_off.(id) in
        let fk = fl.Netlist.fi_off.(id + 1) - fb in
        let pv = t.pc_version.(id) in
        let fresh = pv < 0 || not (fanin_clean t pv id) in
        if fresh then begin
          for j = 1 to fk - 1 do
            let e = fl.Netlist.fi_node.(fb + j) in
            let b = if e >= 0 then 2 * e else (-2 * e) - 2 in
            let src = if e >= 0 then a.Arena.arr else a.Arena.pi in
            Clark.partials_into
              ~mu_a:(Clark.vget a.Arena.pre (2 * (fb + j) - 2))
              ~var_a:(Clark.vget a.Arena.pre (2 * (fb + j) - 1))
              ~mu_b:(Clark.vget src b)
              ~var_b:(Clark.vget src (b + 1))
              a.Arena.pp (fb + j)
          done;
          t.pc_version.(id) <- t.version
        end;
        t.pc_hit.(id) <- not fresh;
        Clark.vset a.Arena.fadj (2 * fb) am;
        Clark.vset a.Arena.fadj ((2 * fb) + 1) av;
        for j = fk - 1 downto 1 do
          Clark.backprop_apply a.Arena.pp (fb + j) a.Arena.fadj ~acc:fb
            ~out:(fb + j)
        done);
    for i = 0 to !n_todo - 1 do
      if t.pc_hit.(t.todo.(i)) then incr p_hits
    done;
    (* Phase 2, serial in decreasing id: identical accumulation order to
       the arena reverse sweep. *)
    for id = hi - 1 downto lo do
      Arena.phase2_gate a id
    done
  done;
  (* Save this sweep's products for the next same-root gradient. *)
  Bigarray.Array1.blit a.Arena.adj slot.s_adj;
  Bigarray.Array1.blit a.Arena.dmu_t slot.s_dmu;
  Bigarray.Array1.blit a.Arena.fadj slot.s_fan;
  Bytes.blit a.Arena.active 0 slot.s_active 0 n;
  slot.s_version <- t.version;
  slot.s_bumps <- t.stamp_bumps;
  slot.s_valid <- true;
  t.st.s_p1_reused <- t.st.s_p1_reused + !reused;
  t.st.s_p1_recomputed <- t.st.s_p1_recomputed + !recomputed;
  t.st.s_partials_reused <- t.st.s_partials_reused + !p_hits;
  Util.Instr.add c_p1_reused !reused;
  Util.Instr.add c_p1_recomputed !recomputed;
  Util.Instr.add c_partials_reused !p_hits

(* One gradient's reverse sweep: the reuse-aware replay for independent
   arenas, the full canonical sweep otherwise. *)
let reverse_dispatch t ~d_mu ~d_var =
  if canonical t then Arena.reverse ?pool:t.pool ~model:t.model t.a ~d_mu ~d_var
  else reverse_core t ~d_mu ~d_var

let value_and_gradient t ~sizes ~seed =
  analyze_state t ~sizes;
  let res = Ssta.of_arena t.a in
  t.st.s_gradients <- t.st.s_gradients + 1;
  Util.Instr.incr c_gradient;
  Util.Instr.time t_reverse @@ fun () ->
  let root = seed res in
  reverse_dispatch t ~d_mu:root.Ssta.d_mu ~d_var:root.Ssta.d_var;
  let grad = Array.make t.n 0. in
  Arena.gradient_into t.a grad;
  (res, grad)

let gradient t ~sizes ~seed = snd (value_and_gradient t ~sizes ~seed)

(* Raw plane-level variant for the sizing engine's inner loop: no result
   snapshot, no gradient copy — the caller reads the arena (via {!arena})
   and receives the gradient in its own buffer (old-id order). *)
let gradient_into t ~sizes ~d_mu ~d_var ~out =
  analyze_state t ~sizes;
  t.st.s_gradients <- t.st.s_gradients + 1;
  Util.Instr.incr c_gradient;
  (Util.Instr.time t_reverse @@ fun () -> reverse_dispatch t ~d_mu ~d_var);
  Arena.gradient_into t.a out
