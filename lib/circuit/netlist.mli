(** Gate-level netlists (paper Section 2's circuit model).

    A netlist is a DAG of sizable gates over a set of primary inputs.  The
    builder only lets a gate reference nodes that already exist, so every
    netlist is acyclic by construction and the gate array is in
    topological order.

    Each gate output carries a wire capacitance ({m C_{load}}); the paper
    deliberately lumps all wiring at a gate output into a single
    capacitance (Section 2), and so do we. *)

type node = Pi of int | Gate of int

type gate = {
  id : int;
  gate_name : string;
  cell : Cell.t;
  fanin : node array;
  wire_load : float;  (** {m C_{load}}: wire capacitance at this gate's output *)
}

type t

(** {1 Construction} *)

module Builder : sig
  type netlist := t
  type t

  val create : ?name:string -> unit -> t

  val add_pi : t -> string -> node
  (** Declares a primary input; duplicate names raise
      [Invalid_argument]. *)

  val add_gate :
    t -> ?name:string -> ?wire_load:float -> cell:Cell.t -> node list -> node
  (** [add_gate b ~cell fanin] adds a gate.  The fanin count must equal
      [cell.n_inputs]; all fanin nodes must already exist.  [wire_load]
      defaults to [1.0]. *)

  val mark_po : t -> ?name:string -> node -> unit
  (** Declares a primary output (a gate or, degenerately, a PI). *)

  val build : t -> netlist
  (** Finalises.  Raises [Invalid_argument] if no primary output was
      declared or a gate is dangling-input. *)
end

(** {1 Accessors} *)

val name : t -> string
val n_pis : t -> int
val n_gates : t -> int
val n_pos : t -> int
val gate : t -> int -> gate
val gates : t -> gate array
val pi_name : t -> int -> string
val pos : t -> node array
val po_name : t -> int -> string

val fanout : t -> int -> (int * int) list
(** [fanout t g] lists the [(consumer gate id, pin multiplicity)] pairs
    driven by gate [g]. *)

val load : t -> sizes:float array -> int -> float
(** [load t ~sizes g] is the total capacitance gate [g] drives:
    {m C_{load,g} + \sum_{i \in fanout(g)} C_{in,i} S_i}.  [sizes] is
    indexed by gate id. *)

val area : t -> sizes:float array -> float
(** {m \sum_i area_i \cdot S_i}; with unit cell areas this is the paper's
    {m \sum S_i} metric.  Reads the {!flat} [g_area] column and sums in
    gate-id order, so it allocates nothing per gate and a CSR-built
    netlist keeps its record view unbuilt. *)

val min_sizes : t -> float array
(** All-ones vector (every speed factor at its lower bound). *)

val max_sizes : t -> float array
(** Per-gate [cell.max_size] vector, read from the {!flat} columns (a
    CSR-built netlist keeps its record view unbuilt). *)

val check_sizes : t -> float array -> unit
(** Validates dimension and bounds; raises [Invalid_argument] naming
    the lowest-id offending gate.  Reads the {!flat} columns and
    allocates nothing on success. *)

val size_in_bounds : t -> int -> float -> bool
(** [size_in_bounds t id s]: would {!check_sizes} accept size [s] for
    gate [id]?  O(1), for callers that validate only the entries they
    changed (and call {!check_sizes} for its message when one fails). *)

(** {1 Structure} *)

val levels : t -> int array
(** Logic level per gate: [1 + max] over fanin levels, PIs at level 0. *)

val depth : t -> int

val level_buckets : t -> int array array
(** [level_buckets t] partitions the gate ids by logic level:
    [(level_buckets t).(l)] lists, in ascending id order, the gates at
    level [l + 1].  Every fanin of a gate in bucket [l] is a PI or a gate
    in a bucket [< l], so the gates of one bucket are independent — this
    is the schedule the levelized (and parallel) SSTA sweeps follow.
    Computed once per netlist and cached; the concatenation of all
    buckets is a permutation of [0 .. n_gates - 1].

    The cache is filled lazily: when a netlist is shared across domains,
    the first analysis (which happens on one domain before any parallel
    region starts) populates it. *)

(** {1 Flat topology view}

    A compressed-sparse-row encoding of the whole topology in unboxed
    [int array] / [float array] planes, for the structure-of-arrays
    timing engines ({!Sta.Arena}): walking the graph then touches no
    lists, records or closures.  Computed once per netlist and cached
    (same lazy, fill-before-sharing lifecycle as {!level_buckets}).

    The flat view renumbers gates {e level-major}: new ids are assigned
    level by level, ascending old id within each level, so one level's
    gates occupy the contiguous new-id range
    [lvl_off.(l) .. lvl_off.(l+1) - 1] and a levelized sweep walks
    memory in cache-blocked order.  Every column and every encoded gate
    reference below is in new-id space; {!flat.perm} / {!flat.inv_perm}
    translate.  Because the permutation is monotone inside each level,
    ascending (or descending) new-id order within a level coincides
    with ascending (descending) old-id order — which is what keeps the
    permuted sweeps' floating-point operation order, and hence their
    bits, identical to the id-ordered boxed reference. *)

type flat = {
  perm : int array;
      (** old gate id -> new (level-major) id, length [n_gates] *)
  inv_perm : int array;  (** new id -> old gate id *)
  lvl_off : int array;
      (** level segment offsets, length [depth + 1]: the gates of level
          [l + 1] hold new ids [lvl_off.(l) .. lvl_off.(l+1) - 1] *)
  fi_off : int array;
      (** fanin row offsets, length [n_gates + 1], indexed by new id:
          gate [g]'s fanin nodes live at
          [fi_node.(fi_off.(g)) .. fi_node.(fi_off.(g+1) - 1)] *)
  fi_node : int array;
      (** encoded fanin nodes, in [gate.fanin] order: a gate is its new
          id, [Pi i] is [-i - 1] *)
  po_node : int array;  (** encoded primary-output nodes, in {!pos} order *)
  po_base : int;
      (** [fi_off.(n_gates)]: the primary-output segment's base in a
          fold-slot-indexed scratch plane *)
  fold_slots : int;
      (** [po_base + n_pos]: total slots a per-operand scratch plane
          needs (one per fanin edge plus one per primary output) *)
  fo_off : int array;  (** fanout row offsets, length [n_gates + 1], new-id *)
  fo_consumer : int array;  (** consumer new id per fanout entry *)
  fo_mult : float array;  (** pin multiplicity, pre-converted to float *)
  fo_cin : float array;  (** consumer cell input capacitance [C_in] *)
  g_t_int : float array;  (** per-gate cell intrinsic delay, new-id order *)
  g_drive : float array;  (** per-gate cell drive resistance, new-id order *)
  g_wire_load : float array;  (** per-gate output wire capacitance, new-id *)
  g_max_size : float array;  (** per-gate size upper bound, new-id order *)
  g_area : float array;  (** per-gate cell area, new-id order *)
}
(** Entries of one fanout row appear in {!fanout}-list order (consumer
    ids renamed, order untouched), so a fold over the row accumulates
    in the same floating-point order as {!load}. *)

val flat : t -> flat

(** {1 Streaming construction}

    Loaders that stream a large design can hand the topology over as
    old-id CSR columns instead of going through {!Builder}, skipping
    the boxed record graph entirely: {!of_csr} computes the flat view
    and the level buckets straight from the columns, and only
    reconstructs the per-gate records / fanout adjacency lists (from
    the retained columns, lazily) if a record-level accessor such as
    {!gate} or {!fanout} is later called.  The fanout rows are derived
    from the fanin rows straight into the flat view's columns, so the
    only words a build allocates beyond the flat view itself are a
    level and a count per gate. *)

val of_csr :
  ?name:string ->
  pi_names:string array ->
  cells:Cell.t array ->
  wire_loads:float array ->
  fi_off:int array ->
  fi_node:int array ->
  pos:node array ->
  po_names:string array ->
  unit ->
  t
(** [of_csr ~pi_names ~cells ~wire_loads ~fi_off ~fi_node ~pos ~po_names ()]
    builds a netlist from old-id CSR columns: gate [g] (ids must be
    topologically ordered — every gate fanin reference strictly below
    [g]) uses cell [cells.(g)], drives wire capacitance
    [wire_loads.(g)], and its encoded fanin nodes (gate [g'] as [g'],
    [Pi i] as [-i - 1]) sit at [fi_node.(fi_off.(g))
    .. fi_node.(fi_off.(g+1) - 1)].  Gate names default to ["g<id>"],
    as with unnamed {!Builder.add_gate}.  The resulting netlist is
    indistinguishable from the equivalent {!Builder} sequence — same
    flat view, same fanout lists, same floating-point sweep results
    bit for bit.  Raises [Invalid_argument] on ragged columns, fanin
    arity/cell mismatches, out-of-range references or an empty
    [pos]. *)

type stats = {
  gates_count : int;
  pi_count : int;
  po_count : int;
  depth : int;
  max_fanout : int;
  avg_fanin : float;
}

val stats : t -> stats
val pp_stats : Format.formatter -> stats -> unit
val pp_summary : Format.formatter -> t -> unit
