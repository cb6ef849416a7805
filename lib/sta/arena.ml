open Circuit
open Statdelay

(* Flat structure-of-arrays timing state shared by every STA engine.

   One arena holds every per-gate and per-fold-step quantity of a
   statistical timing analysis in unboxed [Bigarray.Array1] (float64)
   planes, indexed by the flat view's {e level-major} gate ids (or by
   fold slot, see Netlist.flat).  Moment planes interleave (mu, var)
   pairs — slot [i] at indices [2i] / [2i + 1] — so a random gather of
   a fanin arrival touches one cache line instead of two parallel
   planes, and a levelized sweep walks each level's pairs as one
   contiguous block.  The forward planes are allocated once in
   [create], the adjoint planes on the first reverse sweep (both off
   the OCaml heap: the GC neither scans nor moves them); the sweeps
   then write in place, so a steady-state evaluation — the inner loop
   of an augmented-Lagrangian sizing solve — allocates nothing.  An
   arena that only ever sweeps forward (analyses, served what-ifs,
   Monte Carlo delay means) never allocates or touches adjoint state,
   which is most of its float planes.

   Id spaces.  Everything inside the arena is in new (level-major) ids;
   the public boundary stays in old gate ids: [forward ~sizes] takes an
   old-id size vector (gathered through [flat.inv_perm] once per sweep)
   and [gradient_into] scatters back through the same permutation.  Because the permutation is monotone within each
   level (Netlist.flat's contract), the new-id sweep order coincides
   with the old-id order the boxed reference uses, level by level.

   Bit-identity contract: the sweeps perform the same floating-point
   operations in the same order as the boxed reference implementation
   (Sim.Boxed_ssta, with the verification code), via the flat Clark
   kernels (Clark.max2_into and friends), so arrivals, circuit moments
   and gradients are Int64-bit-identical to the record-returning path
   at 1, 2 or 4 domains.  test/test_arena.ml enforces this differentially.

   Scratch-plane layout.  A gate's fanin fold of Clark.max2 owns the
   slot range [fi_off.(g) .. fi_off.(g+1) - 1] of the [pre] (prefix
   moments), [fadj] (per-operand adjoints) and [pp] (8 partials per
   step) planes; the primary-output fold owns the trailing
   [po_base .. po_base + n_pos - 1] segment.  Ranges are disjoint across
   gates, which is what lets the level-parallel phases write without
   synchronisation while keeping the serial scatter order fixed (the
   same two-phase scheme as the boxed sweeps). *)

type vec = Clark.vec

(* Compact index column: staging reads one index per fold slot / fanout
   edge, so storing them as int32 halves that stream's bandwidth next
   to OCaml's 8-byte [int array]. *)
type ivec = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t


(* Staging gathers in C (stage_stubs.c): pure pair/size copies — no
   floating-point arithmetic, so bit-identity is untouched — with
   software prefetch keeping a couple of dozen cache misses in flight,
   which the OCaml loop's out-of-order window alone cannot. *)
external stage_gather_pairs : Clark.vec -> ivec -> Clark.vec -> int -> int -> unit
  = "sta_stage_gather_pairs"
[@@noalloc]

external stage_gather_sizes : Clark.vec -> ivec -> Clark.vec -> int -> int -> unit
  = "sta_stage_gather_sizes"
[@@noalloc]

type t = {
  net : Netlist.t;
  flat : Netlist.flat;
  n : int;  (** gate count; every per-gate plane has this many slots *)
  (* -- forward state, valid after [forward] -- *)
  sizes : vec;  (** last sizes swept, permuted to new-id order *)
  load : vec;
  del : vec;  (** gate delay (mu, var) pairs *)
  arr : vec;  (** arrival (mu, var) pairs per gate *)
  pre : vec;  (** fold-slot pair plane: prefix maxima of each fold *)
  opnd : vec;
      (** level-window pair scratch: the current level's staged fanin
          operands, indexed by [slot - fi_off.(level lo)] — sized for
          the widest level so it stays cache-resident across levels *)
  fosz : vec;
      (** level-window scratch: the current level's staged consumer
          sizes, indexed by [edge - fo_off.(level lo)] *)
  fi_b : ivec;
      (** fold-slot column: pair index of each operand in [arr] —
          [2 * e] for a gate fanin, [2 * (n + i)] for primary input
          [i] (whose pairs live in [arr]'s tail section) — so staging
          is a branch-free gather from a single plane *)
  fo_c : ivec;  (** fanout-edge column: [fo_consumer] as int32 *)
  pi : vec;  (** primary-input arrival pairs (zero by default) *)
  (* -- reverse state, valid after [reverse]; 1-element stubs until
     the first reverse sweep allocates them ([ensure_adjoint]) -- *)
  mutable pp : vec;
      (** fold-slot plane x8: Clark partials per fold step; only the
          independent reverse sweep reads it, so a canonical arena
          ([p > 0]) keeps the stub *)
  mutable adj : vec;  (** arrival adjoint pairs per gate *)
  mutable dmu_t : vec;  (** gate-delay mean adjoint per gate *)
  mutable active : Bytes.t;  (** ['\001'] iff gate has a non-zero arrival adjoint *)
  mutable fadj : vec;  (** fold-slot pair plane: per-operand adjoints *)
  mutable grad : vec;  (** d(seeded objective)/d(size) per gate, new-id order *)
  (* -- canonical-form extension (empty when [p = 0]) -- *)
  vm : Varmodel.t;  (** variation-source model this arena was built for *)
  p : int;  (** shared-parameter count, [Varmodel.n_params vm] *)
  gparam : int array;
      (** per-gate grid-cell parameter index, new-id order (0 = none) *)
  asens : vec;
      (** arrival sensitivity rows: [p] doubles per gate, PI tail rows
          at [p * (n + i)] (zero — PIs carry no process variation), so
          a fold operand's row base is [p * (fi_b.(slot) / 2)] *)
  presens : vec;  (** fold-slot sensitivity rows: fold prefix sens *)
  mutable sadj : vec;  (** per-gate sensitivity adjoint rows *)
  mutable fsadj : vec;  (** fold-slot sensitivity adjoint rows *)
  mutable cpp : vec;  (** fold-slot plane x16: canonical partials per step *)
}

(* Bigarray.Array1.create leaves the plane uninitialised, and [make_vec]
   leaves it so: every plane is written by a sweep before a sweep reads
   it (the forward sweep writes each gate's load, delay, arrival and
   fold prefixes before any later gate or the reverse sweep reads them;
   the reverse sweep zero-fills its accumulators itself), so a zero
   fill would only touch — and fault in — pages for nothing.  The one
   exception is the primary-input tail of [arr] (and of [asens]),
   which no sweep writes: [create] zeroes it.  test_arena's
   poisoned-plane test NaN-fills everything else and requires
   bit-identical sweeps.  Large planes are advised onto 2 MiB pages
   before their first touch: the sweeps gather fanin operands and
   consumer sizes at random across whole planes, and with 4 KiB pages
   a million-gate plane costs a TLB walk per gather (DESIGN.md
   Section 10). *)
let make_vec len =
  let v = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (max 1 len) in
  Util.Hugepage.advise v;
  v

(* Placeholder for every adjoint plane until the first reverse sweep
   ([ensure_adjoint] tests for it physically); never read or written. *)
let stub = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout 1
let stub_bytes = Bytes.make 1 '\000'

let create ?varmodel net =
  let vm = Option.value varmodel ~default:Varmodel.independent in
  let p = Varmodel.n_params vm in
  let n = Netlist.n_gates net in
  let fl = Netlist.flat net in
  let fs = fl.Netlist.fold_slots in
  let npi = max 1 (Netlist.n_pis net) in
  (* Primary-input pairs live in a tail section of [arr] (pair index
     [n + i] for PI [i]); [pi] is a shared sub-view of that section.
     With every operand in one plane, [fi_b] can pre-resolve each fold
     slot's source to a plain pair index and staging needs no branch. *)
  let arr = make_vec (2 * (n + npi)) in
  let pi = Bigarray.Array1.sub arr (2 * n) (2 * npi) in
  Bigarray.Array1.fill pi 0.;
  (* Index columns: every entry is written here, so no fill either
     (the 1-element column of an empty CSR is never read). *)
  let make_ivec len =
    let v =
      Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout (max 1 len)
    in
    Util.Hugepage.advise v;
    v
  in
  let fi_node = fl.Netlist.fi_node and fo_consumer = fl.Netlist.fo_consumer in
  let fi_b = make_ivec (Array.length fi_node) in
  for sl = 0 to Array.length fi_node - 1 do
    let e = fi_node.(sl) in
    let b = if e >= 0 then 2 * e else 2 * (n + (-e - 1)) in
    Bigarray.Array1.unsafe_set fi_b sl (Int32.of_int b)
  done;
  let fo_c = make_ivec (Array.length fo_consumer) in
  for j = 0 to Array.length fo_consumer - 1 do
    Bigarray.Array1.unsafe_set fo_c j (Int32.of_int fo_consumer.(j))
  done;
  (* The staging scratch only needs to hold one level at a time:
     re-using a widest-level window keeps it L2-resident instead of
     streaming a cold fold-slot-sized plane past the cache each
     sweep. *)
  let max_fi = ref 1 and max_fo = ref 1 in
  let lvl_off = fl.Netlist.lvl_off in
  for l = 0 to Array.length lvl_off - 2 do
    let lo = lvl_off.(l) and hi = lvl_off.(l + 1) in
    let fi = fl.Netlist.fi_off.(hi) - fl.Netlist.fi_off.(lo) in
    let fo = fl.Netlist.fo_off.(hi) - fl.Netlist.fo_off.(lo) in
    if fi > !max_fi then max_fi := fi;
    if fo > !max_fo then max_fo := fo
  done;
  (* Cell-parameter column in new-id order; Varmodel works in old ids. *)
  let gparam =
    if p = 0 then [||]
    else begin
      let cells = Varmodel.cell_params vm net in
      Array.init n (fun i -> cells.(fl.Netlist.inv_perm.(i)))
    end
  in
  (* Primary-input sensitivity rows: zero (no process variation), and
     never written by a sweep. *)
  let asens = make_vec (if p = 0 then 0 else p * (n + npi)) in
  if p > 0 then Bigarray.Array1.fill (Bigarray.Array1.sub asens (p * n) (p * npi)) 0.;
  {
    net;
    flat = fl;
    n;
    sizes = make_vec n;
    load = make_vec n;
    del = make_vec (2 * n);
    arr;
    pre = make_vec (2 * fs);
    opnd = make_vec (2 * !max_fi);
    fosz = make_vec !max_fo;
    fi_b;
    fo_c;
    pi;
    pp = stub;
    adj = stub;
    dmu_t = stub;
    active = stub_bytes;
    fadj = stub;
    grad = stub;
    vm;
    p;
    gparam;
    asens;
    presens = make_vec (if p = 0 then 0 else p * fs);
    sadj = stub;
    fsadj = stub;
    cpp = stub;
  }

(* Allocates the adjoint planes on an arena's first reverse sweep; a
   no-op afterwards.  Serial callers only (the sweeps call it before
   handing any level to the pool). *)
let ensure_adjoint t =
  if t.adj == stub then begin
    let n = t.n and p = t.p in
    let fs = t.flat.Netlist.fold_slots in
    if p = 0 then t.pp <- make_vec (Clark.partials_width * fs)
    else begin
      t.sadj <- make_vec (p * n);
      t.fsadj <- make_vec (p * fs);
      t.cpp <- make_vec (Canon.partials_width * fs)
    end;
    t.dmu_t <- make_vec n;
    t.active <- Bytes.create (max 1 n);
    t.fadj <- make_vec (2 * fs);
    t.grad <- make_vec n;
    (* Last: [adj] is the allocated-yet flag. *)
    t.adj <- make_vec (2 * n)
  end

let netlist t = t.net
let varmodel t = t.vm
let n_params t = t.p

(* ---- primary-input arrivals ------------------------------------------------- *)

(* The boxed sweeps query a [pi_arrival] closure at every operand
   occurrence; the arena samples it once per PI into the pair plane.
   Identical by the Pool determinism contract (the closure must be
   pure). *)
let set_pi_arrival t f =
  for i = 0 to Netlist.n_pis t.net - 1 do
    let d = f i in
    Clark.vset t.pi (2 * i) (Normal.mu d);
    Clark.vset t.pi ((2 * i) + 1) (Normal.var d)
  done

let clear_pi_arrival t = Bigarray.Array1.fill t.pi 0.

(* ---- instrumentation and level scheduling ----------------------------------- *)

(* Shared with Ssta's boxed sweeps so one profile aggregates both. *)
let c_par_levels = Util.Instr.counter "ssta.parallel_levels"
let c_ser_levels = Util.Instr.counter "ssta.serial_levels"
let level_grain = 16

(* Serial sweeps stage-and-evaluate wide levels in sub-blocks of this
   many gates, so the staged window (~40 fanin pairs + fanout sizes
   per gate block) cycles through the closest cache levels instead of
   round-tripping a whole level's worth of scratch through L2. *)
let stage_block = 4096

(* ---- forward sweep ---------------------------------------------------------- *)

(* Gather one level's fanin operand pairs and consumer sizes into the
   contiguous staging planes ([opnd], [fosz]).  These are the sweep's
   only random accesses; issued from inside the Clark fold they would
   serialise behind the compute chain, while these tight
   independent-iteration copy loops keep many cache misses in flight
   at once (memory-level parallelism).  Pure copies, so the staged
   values — and everything computed from them — are bit-identical to a
   direct gather. *)
let stage_fanin t lo hi =
  let fl = t.flat in
  let s0 = Array.unsafe_get fl.Netlist.fi_off lo in
  let s1 = Array.unsafe_get fl.Netlist.fi_off hi in
  stage_gather_pairs t.arr t.fi_b t.opnd s0 s1

let stage_fanout t lo hi =
  let fl = t.flat in
  let f0 = Array.unsafe_get fl.Netlist.fo_off lo in
  let f1 = Array.unsafe_get fl.Netlist.fo_off hi in
  stage_gather_sizes t.sizes t.fo_c t.fosz f0 f1

(* One gate, in two halves.  [eval_delay]: load (CSR fold in
   fanout-list order, Netlist.load's exact accumulation) and delay
   moments (Cell.delay + Sigma_model.var with Normal.of_var's
   validation unfolded).  [eval_fold]: fanin fold of Clark.max2 into
   this gate's prefix slots, arrival = fold + delay.  [id] is a new
   (level-major) id; every column and plane index below is too.
   Requires [stage_fanout] (for [eval_delay]) / [stage_fanin] (for
   [eval_fold]) to have staged a range of the gate's level; [f0] / [s0]
   are that range's first fanout edge and fold slot (the
   scratch-window origins). *)
let eval_delay t model f0 id =
  let fl = t.flat in
  let acc = ref (Array.unsafe_get fl.Netlist.g_wire_load id) in
  let j1 = Array.unsafe_get fl.Netlist.fo_off (id + 1) in
  for j = Array.unsafe_get fl.Netlist.fo_off id to j1 - 1 do
    acc :=
      !acc
      +. Array.unsafe_get fl.Netlist.fo_mult j
         *. (Array.unsafe_get fl.Netlist.fo_cin j
            *. Clark.vget t.fosz (j - f0))
  done;
  let load = !acc in
  Clark.vset t.load id load;
  let s = Clark.vget t.sizes id in
  if s < 1. then invalid_arg "Cell.delay: size below 1";
  let mu_t =
    Array.unsafe_get fl.Netlist.g_t_int id
    +. (Array.unsafe_get fl.Netlist.g_drive id *. load /. s)
  in
  let var_t = Sigma_model.var model mu_t in
  (* Normal.of_var, unfolded to avoid the record. *)
  let var_t =
    if var_t < 0. then
      if var_t > -1e-12 then 0.
      else invalid_arg "Normal.of_var: negative variance"
    else var_t
  in
  Clark.vset t.del (2 * id) mu_t;
  Clark.vset t.del ((2 * id) + 1) var_t

let eval_fold t s0 id =
  let fl = t.flat in
  let mu_t = Clark.vget t.del (2 * id) and var_t = Clark.vget t.del ((2 * id) + 1) in
  let base = Array.unsafe_get fl.Netlist.fi_off id in
  let k = Array.unsafe_get fl.Netlist.fi_off (id + 1) - base in
  let ob = base - s0 in
  if k = 1 then
    (* Single-operand fold: the prefix slot would only ever be read
       back by this [add_into], and the reverse sweep's partials loop
       never touches it — feed the staged operand straight through
       (the exact same value, so bit-identity is untouched). *)
    Clark.add_into
      ~mu_a:(Clark.vget t.opnd (2 * ob))
      ~var_a:(Clark.vget t.opnd ((2 * ob) + 1))
      ~mu_b:mu_t ~var_b:var_t t.arr id
  else begin
    Clark.vset t.pre (2 * base) (Clark.vget t.opnd (2 * ob));
    Clark.vset t.pre ((2 * base) + 1) (Clark.vget t.opnd ((2 * ob) + 1));
    for j = 1 to k - 1 do
      Clark.max2_into
        ~mu_a:(Clark.vget t.pre (2 * (base + j) - 2))
        ~var_a:(Clark.vget t.pre (2 * (base + j) - 1))
        ~mu_b:(Clark.vget t.opnd (2 * (ob + j)))
        ~var_b:(Clark.vget t.opnd ((2 * (ob + j)) + 1))
        t.pre (base + j)
    done;
    Clark.add_into
      ~mu_a:(Clark.vget t.pre (2 * (base + k) - 2))
      ~var_a:(Clark.vget t.pre (2 * (base + k) - 1))
      ~mu_b:mu_t ~var_b:var_t t.arr id
  end

let eval_gate t model s0 f0 id =
  eval_delay t model f0 id;
  eval_fold t s0 id

(* Primary-output fold into the trailing fold-slot segment; the circuit
   moments end up in the segment's last slot. *)
let fold_pos t =
  let fl = t.flat in
  let base = fl.Netlist.po_base in
  let m = Array.length fl.Netlist.po_node in
  let e0 = fl.Netlist.po_node.(0) in
  let b0 = if e0 >= 0 then 2 * e0 else (-2 * e0) - 2 in
  let src0 = if e0 >= 0 then t.arr else t.pi in
  Clark.vset t.pre (2 * base) (Clark.vget src0 b0);
  Clark.vset t.pre ((2 * base) + 1) (Clark.vget src0 (b0 + 1));
  for j = 1 to m - 1 do
    let e = fl.Netlist.po_node.(j) in
    let b = if e >= 0 then 2 * e else (-2 * e) - 2 in
    let src = if e >= 0 then t.arr else t.pi in
    Clark.max2_into
      ~mu_a:(Clark.vget t.pre (2 * (base + j) - 2))
      ~var_a:(Clark.vget t.pre (2 * (base + j) - 1))
      ~mu_b:(Clark.vget src b)
      ~var_b:(Clark.vget src (b + 1))
      t.pre (base + j)
  done

let[@inline] circuit_mu t =
  Clark.vget t.pre
    (2 * (t.flat.Netlist.po_base + Array.length t.flat.Netlist.po_node - 1))

let[@inline] circuit_var t =
  Clark.vget t.pre
    ((2 * (t.flat.Netlist.po_base + Array.length t.flat.Netlist.po_node - 1)) + 1)

let forward_ind ?pool ~model t ~sizes =
  Netlist.check_sizes t.net sizes;
  let inv = t.flat.Netlist.inv_perm in
  for i = 0 to t.n - 1 do
    Clark.vset t.sizes i (Array.unsafe_get sizes (Array.unsafe_get inv i))
  done;
  let lvl_off = t.flat.Netlist.lvl_off in
  let d = Array.length lvl_off - 1 in
  (match pool with
  | Some p when Util.Pool.size p > 1 ->
      for l = 0 to d - 1 do
        let lo = lvl_off.(l) in
        let w = lvl_off.(l + 1) - lo in
        stage_fanin t lo (lo + w);
        stage_fanout t lo (lo + w);
        let s0 = t.flat.Netlist.fi_off.(lo)
        and f0 = t.flat.Netlist.fo_off.(lo) in
        if w >= 2 * level_grain then begin
          Util.Instr.incr c_par_levels;
          Util.Pool.parallel_for ~grain:level_grain ~align:8 p ~n:w (fun i ->
              eval_gate t model s0 f0 (lo + i))
        end
        else begin
          Util.Instr.incr c_ser_levels;
          for id = lo to lo + w - 1 do
            eval_gate t model s0 f0 id
          done
        end
      done
  | _ ->
      (* Serial fast path: plain nested loops, no closures — this is
         the allocation-free branch the zero-alloc regression pins.
         Each level is one contiguous new-id segment, so the sweep
         streams the pair planes level block by level block. *)
      for l = 0 to d - 1 do
        Util.Instr.incr c_ser_levels;
        let lo = lvl_off.(l) and hi = lvl_off.(l + 1) in
        let b0 = ref lo in
        while !b0 < hi do
          let b1 = min hi (!b0 + stage_block) in
          stage_fanin t !b0 b1;
          stage_fanout t !b0 b1;
          let s0 = t.flat.Netlist.fi_off.(!b0)
          and f0 = t.flat.Netlist.fo_off.(!b0) in
          for id = !b0 to b1 - 1 do
            eval_gate t model s0 f0 id
          done;
          b0 := b1
        done
      done);
  fold_pos t

(* ---- reverse sweep ---------------------------------------------------------- *)

(* Phase 1 of one gate (write-disjoint, parallelisable): fold the
   arrival adjoint through the gate's recorded fanin fold.  The forward
   sweep's prefix slots still hold this gate's fold prefixes, so the
   partials are computed from stored moments instead of re-folding —
   the same values bit-for-bit, since the boxed path recomputes them
   with identical operations. *)
let phase1_gate t model s0 id =
  let fl = t.flat in
  let a_mu = Clark.vget t.adj (2 * id)
  and a_var = Clark.vget t.adj ((2 * id) + 1) in
  Clark.vset t.dmu_t id
    (a_mu +. (a_var *. Sigma_model.dvar_dmu model (Clark.vget t.del (2 * id))));
  let base = fl.Netlist.fi_off.(id) in
  let k = fl.Netlist.fi_off.(id + 1) - base in
  let ob = base - s0 in
  Clark.vset t.fadj (2 * base) a_mu;
  Clark.vset t.fadj ((2 * base) + 1) a_var;
  (* Operand moments come from the level's re-staged scratch window —
     the reverse sweep never writes arrivals, so [stage_fanin] gathers
     exactly the pairs the forward sweep folded. *)
  for j = k - 1 downto 1 do
    Clark.partials_into
      ~mu_a:(Clark.vget t.pre (2 * (base + j) - 2))
      ~var_a:(Clark.vget t.pre (2 * (base + j) - 1))
      ~mu_b:(Clark.vget t.opnd (2 * (ob + j)))
      ~var_b:(Clark.vget t.opnd ((2 * (ob + j)) + 1))
      t.pp (base + j);
    Clark.backprop_apply t.pp (base + j) t.fadj ~acc:base ~out:(base + j)
  done

(* Phase 2 of one gate (serial, fixed order): scatter the gradient
   contributions of mu_t = t_int + drive * load / S and the fanin
   adjoints into the shared accumulators — the same expressions and the
   same accumulation order as the boxed phase 2. *)
let phase2_gate t id =
  if Bytes.unsafe_get t.active id <> '\000' then begin
    let fl = t.flat in
    let dmu_t = Clark.vget t.dmu_t id in
    let drive = fl.Netlist.g_drive.(id) in
    let s_g = Clark.vget t.sizes id in
    Clark.vset t.grad id
      (Clark.vget t.grad id
      -. (dmu_t *. drive *. Clark.vget t.load id /. (s_g *. s_g)));
    let j1 = fl.Netlist.fo_off.(id + 1) in
    for j = fl.Netlist.fo_off.(id) to j1 - 1 do
      let c = fl.Netlist.fo_consumer.(j) in
      Clark.vset t.grad c
        (Clark.vget t.grad c
        +. dmu_t *. drive *. fl.Netlist.fo_mult.(j) *. fl.Netlist.fo_cin.(j)
           /. s_g)
    done;
    let base = fl.Netlist.fi_off.(id) in
    let k = fl.Netlist.fi_off.(id + 1) - base in
    for i = 0 to k - 1 do
      let e = fl.Netlist.fi_node.(base + i) in
      if e >= 0 then begin
        Clark.vset t.adj (2 * e)
          (Clark.vget t.adj (2 * e) +. Clark.vget t.fadj (2 * (base + i)));
        Clark.vset t.adj ((2 * e) + 1)
          (Clark.vget t.adj ((2 * e) + 1)
          +. Clark.vget t.fadj ((2 * (base + i)) + 1))
      end
    done
  end

let reverse_ind ?pool ~model t ~d_mu ~d_var =
  let fl = t.flat in
  ensure_adjoint t;
  Bigarray.Array1.fill t.adj 0.;
  Bigarray.Array1.fill t.grad 0.;
  Bytes.fill t.active 0 (Bytes.length t.active) '\000';
  (* Seed the primary-output fold and scatter its per-operand adjoints
     (ascending PO order, as the boxed sweep does). *)
  let base = fl.Netlist.po_base in
  let m = Array.length fl.Netlist.po_node in
  Clark.vset t.fadj (2 * base) d_mu;
  Clark.vset t.fadj ((2 * base) + 1) d_var;
  for j = m - 1 downto 1 do
    let e = fl.Netlist.po_node.(j) in
    let b = if e >= 0 then 2 * e else (-2 * e) - 2 in
    let src = if e >= 0 then t.arr else t.pi in
    Clark.partials_into
      ~mu_a:(Clark.vget t.pre (2 * (base + j) - 2))
      ~var_a:(Clark.vget t.pre (2 * (base + j) - 1))
      ~mu_b:(Clark.vget src b)
      ~var_b:(Clark.vget src (b + 1))
      t.pp (base + j);
    Clark.backprop_apply t.pp (base + j) t.fadj ~acc:base ~out:(base + j)
  done;
  for i = 0 to m - 1 do
    let e = fl.Netlist.po_node.(i) in
    if e >= 0 then begin
      Clark.vset t.adj (2 * e)
        (Clark.vget t.adj (2 * e) +. Clark.vget t.fadj (2 * (base + i)));
      Clark.vset t.adj ((2 * e) + 1)
        (Clark.vget t.adj ((2 * e) + 1) +. Clark.vget t.fadj ((2 * (base + i)) + 1))
    end
  done;
  let lvl_off = fl.Netlist.lvl_off in
  let d = Array.length lvl_off - 1 in
  for l = d - 1 downto 0 do
    let lo = lvl_off.(l) in
    let hi = lvl_off.(l + 1) in
    let w = hi - lo in
    (* Re-stage this level's fanin operands: the forward sweep's
       window now holds a later level's.  Phase 1 is per-gate
       write-disjoint, so block order within the level is free. *)
    (match pool with
    | Some p when Util.Pool.size p > 1 && w >= 2 * level_grain ->
        Util.Instr.incr c_par_levels;
        stage_fanin t lo hi;
        let s0 = fl.Netlist.fi_off.(lo) in
        Util.Pool.parallel_for ~grain:level_grain ~align:8 p ~n:w (fun i ->
            let id = lo + i in
            if
              Clark.vget t.adj (2 * id) <> 0.
              || Clark.vget t.adj ((2 * id) + 1) <> 0.
            then begin
              Bytes.unsafe_set t.active id '\001';
              phase1_gate t model s0 id
            end)
    | _ ->
        Util.Instr.incr c_ser_levels;
        let b0 = ref lo in
        while !b0 < hi do
          let b1 = min hi (!b0 + stage_block) in
          stage_fanin t !b0 b1;
          let s0 = fl.Netlist.fi_off.(!b0) in
          for id = !b0 to b1 - 1 do
            if
              Clark.vget t.adj (2 * id) <> 0.
              || Clark.vget t.adj ((2 * id) + 1) <> 0.
            then begin
              Bytes.unsafe_set t.active id '\001';
              phase1_gate t model s0 id
            end
          done;
          b0 := b1
        done);
    for id = hi - 1 downto lo do
      phase2_gate t id
    done
  done

(* ---- canonical-form sweeps ([p > 0]) ----------------------------------------

   The same levelized schedule as the independent sweeps, generalized
   over [p] shared variation sources: every arrival / fold prefix
   carries a sensitivity row next to its (mu, var) pair, maxima go
   through the correlated Canon kernels (covariance from sensitivity
   dot products, tightness-probability blending), and the gate-delay
   add picks up the shared-source covariance between the fanin fold
   and the gate's own delay.

   Two deliberate differences from the independent path:

   - No C staging.  The sensitivity rows make operands [2 + p] doubles
     wide; staging would copy the whole row stream per level for the
     cache-miss overlap the 16-byte pairs need.  The canonical sweeps
     read operands directly through [fi_b] instead ([p * (b / 2)]
     addresses the row) — correlated mode trades peak bandwidth for
     plane count anyway.
   - No single-fanin shortcut.  The reverse sweep reads the fold's last
     prefix row as the add step's operand, so the forward sweep always
     materialises prefix slot 0 (a pure copy, so bit-identity of the
     residual-only configuration is untouched).

   With an all-zero sensitivity configuration ([Varmodel] fractions 0,
   but [p > 0]) every kernel degenerates to the independent arithmetic
   (see Canon); the [p = 0] arena doesn't even take this code path —
   [forward] / [reverse] dispatch on [t.p], keeping the independent
   sweeps byte-identical to the pre-canonical engine. *)

let eval_gate_c t model ~wg ~wc id =
  let fl = t.flat in
  let p = t.p in
  let acc = ref (Array.unsafe_get fl.Netlist.g_wire_load id) in
  let j1 = Array.unsafe_get fl.Netlist.fo_off (id + 1) in
  for j = Array.unsafe_get fl.Netlist.fo_off id to j1 - 1 do
    acc :=
      !acc
      +. Array.unsafe_get fl.Netlist.fo_mult j
         *. (Array.unsafe_get fl.Netlist.fo_cin j
            *. Clark.vget t.sizes (Array.unsafe_get fl.Netlist.fo_consumer j))
  done;
  let load = !acc in
  Clark.vset t.load id load;
  let s = Clark.vget t.sizes id in
  if s < 1. then invalid_arg "Cell.delay: size below 1";
  let mu_t =
    Array.unsafe_get fl.Netlist.g_t_int id
    +. (Array.unsafe_get fl.Netlist.g_drive id *. load /. s)
  in
  let var_t = Sigma_model.var model mu_t in
  let var_t =
    if var_t < 0. then
      if var_t > -1e-12 then 0.
      else invalid_arg "Normal.of_var: negative variance"
    else var_t
  in
  Clark.vset t.del (2 * id) mu_t;
  Clark.vset t.del ((2 * id) + 1) var_t;
  let sigma_t = Sigma_model.sigma model mu_t in
  let sg = sigma_t *. wg and sc = sigma_t *. wc in
  let cell = Array.unsafe_get t.gparam id in
  let base = Array.unsafe_get fl.Netlist.fi_off id in
  let k = Array.unsafe_get fl.Netlist.fi_off (id + 1) - base in
  (* Prefix 0 is operand 0, moments and sensitivity row both copied. *)
  let b0 = Int32.to_int (Bigarray.Array1.unsafe_get t.fi_b base) in
  Clark.vset t.pre (2 * base) (Clark.vget t.arr b0);
  Clark.vset t.pre ((2 * base) + 1) (Clark.vget t.arr (b0 + 1));
  let r0 = p * (b0 asr 1) in
  for i = 0 to p - 1 do
    Clark.vset t.presens ((p * base) + i) (Clark.vget t.asens (r0 + i))
  done;
  for j = 1 to k - 1 do
    let bj = Int32.to_int (Bigarray.Array1.unsafe_get t.fi_b (base + j)) in
    Canon.max2_into
      ~mu_a:(Clark.vget t.pre (2 * (base + j) - 2))
      ~var_a:(Clark.vget t.pre (2 * (base + j) - 1))
      ~mu_b:(Clark.vget t.arr bj)
      ~var_b:(Clark.vget t.arr (bj + 1))
      t.presens
      (p * (base + j - 1))
      t.asens
      (p * (bj asr 1))
      ~p t.pre (base + j) t.presens
      (p * (base + j))
  done;
  (* Arrival = fold + gate delay.  The gate delay's sensitivity row has
     two non-zero entries (global, cell), so the shared-source
     covariance with the fold is a two-term dot product. *)
  let u = base + k - 1 in
  let su = p * u in
  let mu_u = Clark.vget t.pre (2 * u) and var_u = Clark.vget t.pre ((2 * u) + 1) in
  let cov =
    (Clark.vget t.presens su *. sg) +. (Clark.vget t.presens (su + cell) *. sc)
  in
  let cov = Canon.clip_cov ~var_a:var_u ~var_b:var_t cov in
  Clark.vset t.arr (2 * id) (mu_u +. mu_t);
  Clark.vset t.arr ((2 * id) + 1) (var_u +. var_t +. (2. *. cov));
  let ro = p * id in
  for i = 0 to p - 1 do
    Clark.vset t.asens (ro + i) (Clark.vget t.presens (su + i))
  done;
  Clark.vset t.asens ro (Clark.vget t.asens ro +. sg);
  if cell > 0 then
    Clark.vset t.asens (ro + cell) (Clark.vget t.asens (ro + cell) +. sc)

let fold_pos_c t =
  let fl = t.flat in
  let p = t.p in
  let base = fl.Netlist.po_base in
  let m = Array.length fl.Netlist.po_node in
  let e0 = fl.Netlist.po_node.(0) in
  let b0 = if e0 >= 0 then 2 * e0 else (-2 * e0) - 2 in
  let src0 = if e0 >= 0 then t.arr else t.pi in
  let sb0 = if e0 >= 0 then p * e0 else p * (t.n + (-e0) - 1) in
  Clark.vset t.pre (2 * base) (Clark.vget src0 b0);
  Clark.vset t.pre ((2 * base) + 1) (Clark.vget src0 (b0 + 1));
  for i = 0 to p - 1 do
    Clark.vset t.presens ((p * base) + i) (Clark.vget t.asens (sb0 + i))
  done;
  for j = 1 to m - 1 do
    let e = fl.Netlist.po_node.(j) in
    let b = if e >= 0 then 2 * e else (-2 * e) - 2 in
    let src = if e >= 0 then t.arr else t.pi in
    let sb = if e >= 0 then p * e else p * (t.n + (-e) - 1) in
    Canon.max2_into
      ~mu_a:(Clark.vget t.pre (2 * (base + j) - 2))
      ~var_a:(Clark.vget t.pre (2 * (base + j) - 1))
      ~mu_b:(Clark.vget src b)
      ~var_b:(Clark.vget src (b + 1))
      t.presens
      (p * (base + j - 1))
      t.asens sb ~p t.pre (base + j) t.presens
      (p * (base + j))
  done

let forward_c ?pool ~model t ~sizes =
  Netlist.check_sizes t.net sizes;
  let inv = t.flat.Netlist.inv_perm in
  for i = 0 to t.n - 1 do
    Clark.vset t.sizes i (Array.unsafe_get sizes (Array.unsafe_get inv i))
  done;
  let wg = Varmodel.w_global t.vm and wc = Varmodel.w_cell t.vm in
  let lvl_off = t.flat.Netlist.lvl_off in
  let d = Array.length lvl_off - 1 in
  for l = 0 to d - 1 do
    let lo = lvl_off.(l) and hi = lvl_off.(l + 1) in
    let w = hi - lo in
    match pool with
    | Some pl when Util.Pool.size pl > 1 && w >= 2 * level_grain ->
        Util.Instr.incr c_par_levels;
        Util.Pool.parallel_for ~grain:level_grain ~align:8 pl ~n:w (fun i ->
            eval_gate_c t model ~wg ~wc (lo + i))
    | _ ->
        Util.Instr.incr c_ser_levels;
        for id = lo to hi - 1 do
          eval_gate_c t model ~wg ~wc id
        done
  done;
  fold_pos_c t

(* Phase 1, canonical: the add step's adjoints (mean straight through;
   the gate-delay mean additionally collects the variance and
   sensitivity channels through dsigma/dmu), then the recorded fold's
   adjoint chain through the canonical partials. *)
let phase1_gate_c t model ~wg ~wc id =
  let fl = t.flat in
  let p = t.p in
  let a_mu = Clark.vget t.adj (2 * id)
  and a_var = Clark.vget t.adj ((2 * id) + 1) in
  let base = fl.Netlist.fi_off.(id) in
  let k = fl.Netlist.fi_off.(id + 1) - base in
  let u = base + k - 1 in
  let su = p * u in
  let mu_t = Clark.vget t.del (2 * id) in
  let sigma_t = Sigma_model.sigma model mu_t in
  let sg = sigma_t *. wg and sc = sigma_t *. wc in
  let cell = Array.unsafe_get t.gparam id in
  let sr0 = p * id in
  (* d(objective)/d(mu_t): the arrival mean, the gate variance
     (dvar/dmu), the add's covariance term (2 vbar <s_U, d s_T/d mu>)
     and the output sensitivities (sbar_i w_i dsigma/dmu). *)
  let su_g = Clark.vget t.presens su in
  let su_c = Clark.vget t.presens (su + cell) in
  let sbar_g = Clark.vget t.sadj sr0 in
  let sbar_c = Clark.vget t.sadj (sr0 + cell) in
  let dsig = Sigma_model.dsigma_dmu model mu_t in
  Clark.vset t.dmu_t id
    (a_mu
    +. (a_var *. Sigma_model.dvar_dmu model mu_t)
    +. (dsig
       *. ((2. *. a_var *. ((su_g *. wg) +. (su_c *. wc)))
          +. (sbar_g *. wg) +. (sbar_c *. wc))));
  (* Seed the fold adjoint with U's: moments pass through the add
     unchanged; the sensitivity adjoints gain the covariance route
     sbar_U_i = sbar_i + 2 vbar st_i (two non-zero st entries). *)
  Clark.vset t.fadj (2 * base) a_mu;
  Clark.vset t.fadj ((2 * base) + 1) a_var;
  for i = 0 to p - 1 do
    Clark.vset t.fsadj ((p * base) + i) (Clark.vget t.sadj (sr0 + i))
  done;
  Clark.vset t.fsadj (p * base)
    (Clark.vget t.fsadj (p * base) +. (2. *. a_var *. sg));
  if cell > 0 then
    Clark.vset t.fsadj ((p * base) + cell)
      (Clark.vget t.fsadj ((p * base) + cell) +. (2. *. a_var *. sc));
  for j = k - 1 downto 1 do
    let bj = Int32.to_int (Bigarray.Array1.unsafe_get t.fi_b (base + j)) in
    Canon.partials_into
      ~mu_a:(Clark.vget t.pre (2 * (base + j) - 2))
      ~var_a:(Clark.vget t.pre (2 * (base + j) - 1))
      ~mu_b:(Clark.vget t.arr bj)
      ~var_b:(Clark.vget t.arr (bj + 1))
      t.presens
      (p * (base + j - 1))
      t.asens
      (p * (bj asr 1))
      ~p t.cpp (base + j);
    Canon.backprop_apply t.cpp (base + j) t.fadj ~acc:base ~out:(base + j)
      t.fsadj ~sacc:(p * base)
      ~sout:(p * (base + j))
      t.presens
      (p * (base + j - 1))
      t.asens
      (p * (bj asr 1))
      ~p
  done

(* Phase 2, canonical: the gradient scatter of the independent phase 2
   plus the fanin sensitivity-adjoint accumulation. *)
let phase2_gate_c t id =
  if Bytes.unsafe_get t.active id <> '\000' then begin
    let fl = t.flat in
    let p = t.p in
    let dmu_t = Clark.vget t.dmu_t id in
    let drive = fl.Netlist.g_drive.(id) in
    let s_g = Clark.vget t.sizes id in
    Clark.vset t.grad id
      (Clark.vget t.grad id
      -. (dmu_t *. drive *. Clark.vget t.load id /. (s_g *. s_g)));
    let j1 = fl.Netlist.fo_off.(id + 1) in
    for j = fl.Netlist.fo_off.(id) to j1 - 1 do
      let c = fl.Netlist.fo_consumer.(j) in
      Clark.vset t.grad c
        (Clark.vget t.grad c
        +. dmu_t *. drive *. fl.Netlist.fo_mult.(j) *. fl.Netlist.fo_cin.(j)
           /. s_g)
    done;
    let base = fl.Netlist.fi_off.(id) in
    let k = fl.Netlist.fi_off.(id + 1) - base in
    for i = 0 to k - 1 do
      let e = fl.Netlist.fi_node.(base + i) in
      if e >= 0 then begin
        Clark.vset t.adj (2 * e)
          (Clark.vget t.adj (2 * e) +. Clark.vget t.fadj (2 * (base + i)));
        Clark.vset t.adj ((2 * e) + 1)
          (Clark.vget t.adj ((2 * e) + 1)
          +. Clark.vget t.fadj ((2 * (base + i)) + 1));
        let sr = p * e and fr = p * (base + i) in
        for q = 0 to p - 1 do
          Clark.vset t.sadj (sr + q)
            (Clark.vget t.sadj (sr + q) +. Clark.vget t.fsadj (fr + q))
        done
      end
    done
  end

(* A gate is live for phase 1 when any adjoint channel — moment pair or
   sensitivity row — is non-zero. *)
let[@inline] adjoint_live t id =
  if Clark.vget t.adj (2 * id) <> 0. || Clark.vget t.adj ((2 * id) + 1) <> 0.
  then true
  else begin
    let r = t.p * id in
    let live = ref false in
    let i = ref 0 in
    while (not !live) && !i < t.p do
      if Clark.vget t.sadj (r + !i) <> 0. then live := true;
      incr i
    done;
    !live
  end

let reverse_c ?pool ~model t ~d_mu ~d_var =
  let fl = t.flat in
  let p = t.p in
  ensure_adjoint t;
  Bigarray.Array1.fill t.adj 0.;
  Bigarray.Array1.fill t.grad 0.;
  Bigarray.Array1.fill t.sadj 0.;
  Bytes.fill t.active 0 (Bytes.length t.active) '\000';
  let wg = Varmodel.w_global t.vm and wc = Varmodel.w_cell t.vm in
  (* Primary-output fold: the circuit objective seeds the moment pair
     only — circuit-level sensitivity adjoints start at zero and grow
     through the covariance/tightness routes. *)
  let base = fl.Netlist.po_base in
  let m = Array.length fl.Netlist.po_node in
  Clark.vset t.fadj (2 * base) d_mu;
  Clark.vset t.fadj ((2 * base) + 1) d_var;
  for i = 0 to p - 1 do
    Clark.vset t.fsadj ((p * base) + i) 0.
  done;
  for j = m - 1 downto 1 do
    let e = fl.Netlist.po_node.(j) in
    let b = if e >= 0 then 2 * e else (-2 * e) - 2 in
    let src = if e >= 0 then t.arr else t.pi in
    let sb = if e >= 0 then p * e else p * (t.n + (-e) - 1) in
    Canon.partials_into
      ~mu_a:(Clark.vget t.pre (2 * (base + j) - 2))
      ~var_a:(Clark.vget t.pre (2 * (base + j) - 1))
      ~mu_b:(Clark.vget src b)
      ~var_b:(Clark.vget src (b + 1))
      t.presens
      (p * (base + j - 1))
      t.asens sb ~p t.cpp (base + j);
    Canon.backprop_apply t.cpp (base + j) t.fadj ~acc:base ~out:(base + j)
      t.fsadj ~sacc:(p * base)
      ~sout:(p * (base + j))
      t.presens
      (p * (base + j - 1))
      t.asens sb ~p
  done;
  for i = 0 to m - 1 do
    let e = fl.Netlist.po_node.(i) in
    if e >= 0 then begin
      Clark.vset t.adj (2 * e)
        (Clark.vget t.adj (2 * e) +. Clark.vget t.fadj (2 * (base + i)));
      Clark.vset t.adj ((2 * e) + 1)
        (Clark.vget t.adj ((2 * e) + 1) +. Clark.vget t.fadj ((2 * (base + i)) + 1));
      let sr = p * e and fr = p * (base + i) in
      for q = 0 to p - 1 do
        Clark.vset t.sadj (sr + q)
          (Clark.vget t.sadj (sr + q) +. Clark.vget t.fsadj (fr + q))
      done
    end
  done;
  let lvl_off = fl.Netlist.lvl_off in
  let d = Array.length lvl_off - 1 in
  for l = d - 1 downto 0 do
    let lo = lvl_off.(l) in
    let hi = lvl_off.(l + 1) in
    let w = hi - lo in
    (match pool with
    | Some pl when Util.Pool.size pl > 1 && w >= 2 * level_grain ->
        Util.Instr.incr c_par_levels;
        Util.Pool.parallel_for ~grain:level_grain ~align:8 pl ~n:w (fun i ->
            let id = lo + i in
            if adjoint_live t id then begin
              Bytes.unsafe_set t.active id '\001';
              phase1_gate_c t model ~wg ~wc id
            end)
    | _ ->
        Util.Instr.incr c_ser_levels;
        for id = lo to hi - 1 do
          if adjoint_live t id then begin
            Bytes.unsafe_set t.active id '\001';
            phase1_gate_c t model ~wg ~wc id
          end
        done);
    for id = hi - 1 downto lo do
      phase2_gate_c t id
    done
  done

(* ---- dispatch --------------------------------------------------------------- *)

let forward ?pool ~model t ~sizes =
  if t.p = 0 then forward_ind ?pool ~model t ~sizes
  else forward_c ?pool ~model t ~sizes

let reverse ?pool ~model t ~d_mu ~d_var =
  if t.p = 0 then reverse_ind ?pool ~model t ~d_mu ~d_var
  else reverse_c ?pool ~model t ~d_mu ~d_var

(* ---- old-id boundary accessors ---------------------------------------------- *)

let gradient_into t (out : float array) =
  if Array.length out < t.n then
    invalid_arg "Arena.gradient_into: output shorter than the gate count";
  if t.grad == stub then invalid_arg "Arena.gradient_into: no reverse sweep has run";
  let inv = t.flat.Netlist.inv_perm in
  for i = 0 to t.n - 1 do
    Array.unsafe_set out (Array.unsafe_get inv i) (Clark.vget t.grad i)
  done

let circuit_sens_into t (out : float array) =
  if Array.length out < t.p then
    invalid_arg "Arena.circuit_sens_into: output shorter than the parameter count";
  let r = t.p * (t.flat.Netlist.po_base + Array.length t.flat.Netlist.po_node - 1) in
  for i = 0 to t.p - 1 do
    Array.unsafe_set out i (Clark.vget t.presens (r + i))
  done
