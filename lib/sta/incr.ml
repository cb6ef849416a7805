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
      (* the planes hold a completed analysis (never cleared: change
         stamps stay meaningful across invalidations) *)
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
     per operand instead of re-running the Clark operators. *)
  pc_version : int array;
  pc_hit : bool array;
  (* PO-fold partials (the [pp] plane's trailing segment), valid for the
     current version only. *)
  mutable po_version : int;
  (* Scratch for one sweep. *)
  dirty : bool array;
  changed : bool array;
  changed_local : bool array;
  mutable marked : int list;
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
    pc_version = Array.make n (-1);
    pc_hit = Array.make n false;
    po_version = -1;
    dirty = Array.make n false;
    changed = Array.make n false;
    changed_local = Array.make n false;
    marked = [];
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
let fbits_eq a b = Int64.equal (bits a) (bits b)

let pooled_for t n body =
  match t.pool with
  | Some p when Util.Pool.size p > 1 && n >= 2 * Arena.level_grain ->
      Util.Pool.parallel_for ~grain:Arena.level_grain ~align:8 p ~n body
  | _ ->
      for i = 0 to n - 1 do
        body i
      done

(* Re-evaluate one gate against the engine's current sizes and cached
   fanin arrivals — the exact operations of Arena.eval_gate (hence of a
   from-scratch sweep), computed into locals first so the new values can
   be bit-compared against the cached planes before overwriting them.
   Pure per-gate slot writes: safe to run on the pool.  Change flags are
   left in [t.changed] / [t.changed_local] for the caller's serial
   stamp-and-mark pass.  [id] is a new (level-major) id. *)
let[@inline] recompute_one t id =
  let a = t.a in
  let fl = a.Arena.flat in
  let sizes = a.Arena.sizes in
  let acc = ref fl.Netlist.g_wire_load.(id) in
  for j = fl.Netlist.fo_off.(id) to fl.Netlist.fo_off.(id + 1) - 1 do
    acc :=
      !acc
      +. fl.Netlist.fo_mult.(j)
         *. (fl.Netlist.fo_cin.(j)
            *. Clark.vget sizes fl.Netlist.fo_consumer.(j))
  done;
  let load = !acc in
  let s = Clark.vget sizes id in
  if s < 1. then invalid_arg "Cell.delay: size below 1";
  let mu_t = fl.Netlist.g_t_int.(id) +. (fl.Netlist.g_drive.(id) *. load /. s) in
  let var_t = Sigma_model.var t.model mu_t in
  let var_t =
    if var_t < 0. then
      if var_t > -1e-12 then 0.
      else invalid_arg "Normal.of_var: negative variance"
    else var_t
  in
  let base = fl.Netlist.fi_off.(id) in
  let k = fl.Netlist.fi_off.(id + 1) - base in
  let e0 = fl.Netlist.fi_node.(base) in
  let b0 = if e0 >= 0 then 2 * e0 else (-2 * e0) - 2 in
  let src0 = if e0 >= 0 then a.Arena.arr else a.Arena.pi in
  Clark.vset a.Arena.pre (2 * base) (Clark.vget src0 b0);
  Clark.vset a.Arena.pre ((2 * base) + 1) (Clark.vget src0 (b0 + 1));
  for j = 1 to k - 1 do
    let e = fl.Netlist.fi_node.(base + j) in
    let b = if e >= 0 then 2 * e else (-2 * e) - 2 in
    let src = if e >= 0 then a.Arena.arr else a.Arena.pi in
    Clark.max2_into
      ~mu_a:(Clark.vget a.Arena.pre (2 * (base + j) - 2))
      ~var_a:(Clark.vget a.Arena.pre (2 * (base + j) - 1))
      ~mu_b:(Clark.vget src b)
      ~var_b:(Clark.vget src (b + 1))
      a.Arena.pre (base + j)
  done;
  let arr_mu = Clark.vget a.Arena.pre (2 * (base + k) - 2) +. mu_t in
  let arr_var = Clark.vget a.Arena.pre (2 * (base + k) - 1) +. var_t in
  let old_mu = Clark.vget a.Arena.arr (2 * id)
  and old_var = Clark.vget a.Arena.arr ((2 * id) + 1) in
  let changed =
    (not t.initialized)
    || not (fbits_eq arr_mu old_mu && fbits_eq arr_var old_var)
  in
  let changed_local =
    (not t.initialized)
    || (not (fbits_eq load (Clark.vget a.Arena.load id)))
    || (not (fbits_eq mu_t (Clark.vget a.Arena.del (2 * id))))
    || not (fbits_eq var_t (Clark.vget a.Arena.del ((2 * id) + 1)))
  in
  Clark.vset a.Arena.load id load;
  Clark.vset a.Arena.del (2 * id) mu_t;
  Clark.vset a.Arena.del ((2 * id) + 1) var_t;
  Clark.vset a.Arena.arr (2 * id) arr_mu;
  Clark.vset a.Arena.arr ((2 * id) + 1) arr_var;
  t.changed.(id) <- changed;
  t.changed_local.(id) <- changed_local

(* One whole level: the contiguous new-id range [lo, hi). *)
let recompute_range t lo hi =
  pooled_for t (hi - lo) (fun i -> recompute_one t (lo + i))

(* A level's dirty subset, [ids.(0 .. k - 1)]. *)
let recompute_ids t (ids : int array) k =
  pooled_for t k (fun i -> recompute_one t ids.(i))

let refold_pos t = Arena.fold_pos t.a

(* Gather the caller's old-id sizes into the arena's new-id plane. *)
let gather_sizes t (sizes : float array) =
  let inv = t.a.Arena.flat.Netlist.inv_perm in
  for i = 0 to t.n - 1 do
    Clark.vset t.a.Arena.sizes i (Array.unsafe_get sizes (Array.unsafe_get inv i))
  done

let full_sweep t ~sizes =
  t.version <- t.version + 1;
  gather_sizes t sizes;
  let lvl_off = t.a.Arena.flat.Netlist.lvl_off in
  for l = 0 to Array.length lvl_off - 2 do
    recompute_range t lvl_off.(l) lvl_off.(l + 1)
  done;
  for id = 0 to t.n - 1 do
    if t.changed.(id) then begin
      t.stamp_arrival.(id) <- t.version;
      t.stamp_bumps <- t.stamp_bumps + 1
    end;
    if t.changed_local.(id) then t.stamp_local.(id) <- t.version
  done;
  refold_pos t;
  t.st.s_full_sweeps <- t.st.s_full_sweeps + 1;
  t.st.s_reeval <- t.st.s_reeval + t.n;
  Util.Instr.incr c_full_sweep;
  Util.Instr.add c_reeval t.n

let mark t id =
  if not t.dirty.(id) then begin
    t.dirty.(id) <- true;
    t.marked <- id :: t.marked
  end

let incremental_sweep t ~sizes changed_ids =
  t.version <- t.version + 1;
  (* Seed the dirty set: the changed gates themselves, plus every gate
     fanin of a changed gate — the driver's load (hence delay and
     arrival) depends on the consumer's size. *)
  let fl = t.a.Arena.flat in
  List.iter
    (fun id ->
      mark t id;
      for j = fl.Netlist.fi_off.(id) to fl.Netlist.fi_off.(id + 1) - 1 do
        let e = fl.Netlist.fi_node.(j) in
        if e >= 0 then mark t e
      done)
    changed_ids;
  gather_sizes t sizes;
  let reeval = ref 0 and cuts = ref 0 in
  let lvl_off = fl.Netlist.lvl_off in
  for l = 0 to Array.length lvl_off - 2 do
    let lo = lvl_off.(l) and hi = lvl_off.(l + 1) in
    (* The level's dirty subset, in ascending new-id order (within a
       level that coincides with ascending old-id order). *)
    let k = ref 0 in
    for id = lo to hi - 1 do
      if t.dirty.(id) then begin
        t.todo.(!k) <- id;
        incr k
      end
    done;
    if !k > 0 then begin
      recompute_ids t t.todo !k;
      reeval := !reeval + !k;
      for i = 0 to !k - 1 do
        let id = t.todo.(i) in
        if t.changed_local.(id) then t.stamp_local.(id) <- t.version;
        if t.changed.(id) then begin
          t.stamp_arrival.(id) <- t.version;
          t.stamp_bumps <- t.stamp_bumps + 1;
          for j = fl.Netlist.fo_off.(id) to fl.Netlist.fo_off.(id + 1) - 1 do
            mark t fl.Netlist.fo_consumer.(j)
          done
        end
        else incr cuts
      done
    end
  done;
  List.iter (fun id -> t.dirty.(id) <- false) t.marked;
  t.marked <- [];
  refold_pos t;
  t.st.s_reeval <- t.st.s_reeval + !reeval;
  t.st.s_cutoffs <- t.st.s_cutoffs + !cuts;
  Util.Instr.add c_reeval !reeval;
  Util.Instr.add c_cutoff !cuts

(* Same bitwise sizes as the last completed sweep? *)
let sizes_unchanged t ~sizes =
  let inv = t.a.Arena.flat.Netlist.inv_perm in
  let same = ref true in
  let i = ref 0 in
  while !same && !i < t.n do
    if not (fbits_eq sizes.(inv.(!i)) (Clark.vget t.a.Arena.sizes !i)) then
      same := false;
    incr i
  done;
  !same

(* Bring the engine's cached state to [sizes]. *)
let analyze_state t ~sizes =
  Netlist.check_sizes t.net sizes;
  t.st.s_analyzes <- t.st.s_analyzes + 1;
  Util.Instr.incr c_analyze;
  Util.Instr.time t_forward @@ fun () ->
  if canonical t then begin
    if t.f_valid && sizes_unchanged t ~sizes then begin
      t.st.s_cache_hits <- t.st.s_cache_hits + 1;
      Util.Instr.incr c_cache_hit
    end
    else begin
      Arena.forward ?pool:t.pool ~model:t.model t.a ~sizes;
      t.st.s_full_sweeps <- t.st.s_full_sweeps + 1;
      t.st.s_reeval <- t.st.s_reeval + t.n;
      Util.Instr.incr c_full_sweep;
      Util.Instr.add c_reeval t.n
    end
  end
  else if not t.f_valid then full_sweep t ~sizes
  else begin
    let inv = t.a.Arena.flat.Netlist.inv_perm in
    let changed_ids = ref [] in
    for i = t.n - 1 downto 0 do
      if not (fbits_eq sizes.(inv.(i)) (Clark.vget t.a.Arena.sizes i)) then
        changed_ids := i :: !changed_ids
    done;
    match !changed_ids with
    | [] ->
        t.st.s_cache_hits <- t.st.s_cache_hits + 1;
        Util.Instr.incr c_cache_hit
    | ids -> incremental_sweep t ~sizes ids
  end;
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
          && fbits_eq am (Clark.vget slot.s_adj (2 * id))
          && fbits_eq av (Clark.vget slot.s_adj ((2 * id) + 1))
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
