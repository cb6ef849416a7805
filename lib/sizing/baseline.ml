open Circuit

type options = { bump : float; max_moves : int }

let default_options = { bump = 1.15; max_moves = 100_000 }

type result = {
  sizes : float array;
  delay : float;
  area : float;
  moves : int;
  met : bool;
}

(* Secondary objective used to break ties: the summed arrival time over all
   gates.  On circuits with several equally critical paths (e.g. a balanced
   tree) a single move often leaves the circuit max unchanged; the summed
   arrivals still strictly decrease, so the greedy loop keeps making
   progress instead of stalling. *)
let total_arrival (r : Sta.Dsta.result) = Util.Numerics.sum r.Sta.Dsta.arrival

(* One greedy move: among the critical-path gates, apply the size bump that
   gives the best (delay, total-arrival) decrease per unit of added area.
   Returns None when no bump improves either metric. *)
let best_move ~options net ~max_sizes sizes current_delay current_total =
  let path = Sta.Dsta.critical_path net ~sizes in
  let best = ref None in
  List.iter
    (fun g ->
      let old_size = sizes.(g) in
      let proposal = min (old_size *. options.bump) max_sizes.(g) in
      if proposal > old_size +. 1e-9 then begin
        sizes.(g) <- proposal;
        let r = Sta.Dsta.analyze net ~sizes in
        sizes.(g) <- old_size;
        let d = r.Sta.Dsta.circuit and total = total_arrival r in
        let improves =
          d < current_delay -. 1e-12
          || (d <= current_delay +. 1e-12 && total < current_total -. 1e-12)
        in
        if improves then begin
          let area = (Netlist.gate net g).Netlist.cell.Cell.area in
          let gain =
            ((current_delay -. d) +. (1e-3 *. (current_total -. total)))
            /. (area *. (proposal -. old_size))
          in
          match !best with
          | Some (_, _, _, _, best_gain) when best_gain >= gain -> ()
          | _ -> best := Some (g, proposal, d, total, gain)
        end
      end)
    path;
  !best

let run ~options ~stop net =
  let sizes = Netlist.min_sizes net in
  let r0 = Sta.Dsta.analyze net ~sizes in
  let delay = ref r0.Sta.Dsta.circuit in
  let total = ref (total_arrival r0) in
  let moves = ref 0 in
  let finished = ref (stop !delay) in
  let max_sizes = Netlist.max_sizes net in
  while (not !finished) && !moves < options.max_moves do
    match best_move ~options net ~max_sizes sizes !delay !total with
    | None -> finished := true
    | Some (g, proposal, d, t, _) ->
        sizes.(g) <- proposal;
        delay := d;
        total := t;
        incr moves;
        if stop d then finished := true
  done;
  (sizes, !delay, !moves)

let minimize_delay ?(options = default_options) net =
  let sizes, delay, moves = run ~options ~stop:(fun _ -> false) net in
  { sizes; delay; area = Netlist.area net ~sizes; moves; met = true }

let meet_deadline ?(options = default_options) net ~deadline =
  let sizes, delay, moves = run ~options ~stop:(fun d -> d <= deadline) net in
  { sizes; delay; area = Netlist.area net ~sizes; moves; met = delay <= deadline }
