(** Deterministic (worst-case) static timing analysis.

    The classical analysis the paper's statistical treatment replaces:
    each gate has the single delay {m t_{cell}(S)} of the sizable-cell
    model and arrival times propagate with [max] and [+] (paper eq. 1–3
    with point values).  Used by the deterministic baseline sizer and as
    the per-sample propagation engine of the Monte Carlo validator. *)

type result = {
  arrival : float array;  (** arrival time at each gate output *)
  gate_delay : float array;  (** cell propagation delay per gate *)
  circuit : float;  (** max arrival over the primary outputs *)
}

val delays : Circuit.Netlist.t -> sizes:float array -> float array
(** Mean cell propagation delay per gate at the given sizes — the
    deterministic half of the delay model, shared with the Monte Carlo
    engine ({!Mcsta}), which adds the sampled uncertainty on top. *)

val analyze :
  ?pi_arrival:(int -> float) -> Circuit.Netlist.t -> sizes:float array -> result
(** Worst-case arrival times.  [pi_arrival] defaults to [fun _ -> 0.]. *)

val analyze_with_delays :
  ?pi_arrival:(int -> float) ->
  Circuit.Netlist.t ->
  gate_delay:float array ->
  result
(** Propagation with externally supplied per-gate delays (one Monte Carlo
    sample). *)

val propagate_into :
  ?pi_arrival:(int -> float) ->
  Circuit.Netlist.t ->
  gate_delay:float array ->
  arrival:float array ->
  float
(** Allocation-free core of {!analyze_with_delays}: fills the
    caller-owned [arrival] scratch (length at least [n_gates]) and
    returns the circuit delay.  The Monte Carlo loops ({!Crit},
    {!Yield}) reuse one scratch across all samples.  Same operations,
    same bits as {!analyze_with_delays}.  Walks the flat fanin columns
    ({!Circuit.Netlist.flat}), so a CSR-loaded netlist keeps its record
    view unbuilt and the sweep allocates nothing. *)

val required :
  Circuit.Netlist.t -> gate_delay:float array -> deadline:float -> float array
(** Required times per gate for the given deadline (backwards pass over
    the flat fanin columns; allocates only the returned array). *)

val slack :
  Circuit.Netlist.t -> sizes:float array -> deadline:float -> float array
(** [required - arrival] per gate. *)

val critical_path : Circuit.Netlist.t -> sizes:float array -> int list
(** Gate ids of one most-critical PI-to-PO path, input side first. *)
