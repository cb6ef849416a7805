type node = Pi of int | Gate of int

type gate = {
  id : int;
  gate_name : string;
  cell : Cell.t;
  fanin : node array;
  wire_load : float;
}

type flat = {
  perm : int array;
  inv_perm : int array;
  lvl_off : int array;
  fi_off : int array;
  fi_node : int array;
  po_node : int array;
  po_base : int;
  fold_slots : int;
  fo_off : int array;
  fo_consumer : int array;
  fo_mult : float array;
  fo_cin : float array;
  g_t_int : float array;
  g_drive : float array;
  g_wire_load : float array;
  g_max_size : float array;
  g_area : float array;
}

type t = {
  name : string;
  pis : string array;
  n_g : int;
  gates_l : gate array Lazy.t;
      (* record view of the gates; lazy so a CSR-loaded netlist
         ([of_csr]) only materialises the boxed graph when a
         record-level accessor is actually used *)
  pos : node array;
  po_names : string array;
  fanout_l : (int * int) list array Lazy.t;
  mutable bucket_cache : int array array option;
      (* per-level gate-id buckets, computed once per netlist on first
         use (the topology never changes after [Builder.build]) *)
  mutable flat_cache : flat option;
      (* flat CSR topology view for the structure-of-arrays timing
         engines, same once-per-netlist lifecycle as [bucket_cache] *)
}

module Builder = struct
  type netlist = t

  type t = {
    mutable bname : string;
    mutable rev_pis : string list;
    mutable n_pi : int;
    pi_seen : (string, unit) Hashtbl.t;
    mutable rev_gates : gate list;
    mutable n_gate : int;
    mutable rev_pos : (node * string) list;
  }

  let create ?(name = "circuit") () =
    {
      bname = name;
      rev_pis = [];
      n_pi = 0;
      pi_seen = Hashtbl.create 16;
      rev_gates = [];
      n_gate = 0;
      rev_pos = [];
    }

  let add_pi b name =
    if Hashtbl.mem b.pi_seen name then
      invalid_arg ("Netlist.Builder.add_pi: duplicate input " ^ name);
    Hashtbl.add b.pi_seen name ();
    let id = b.n_pi in
    b.rev_pis <- name :: b.rev_pis;
    b.n_pi <- id + 1;
    Pi id

  let node_exists b = function
    | Pi i -> i >= 0 && i < b.n_pi
    | Gate i -> i >= 0 && i < b.n_gate

  let add_gate b ?name ?(wire_load = 1.0) ~cell fanin =
    let fanin = Array.of_list fanin in
    if Array.length fanin <> cell.Cell.n_inputs then
      invalid_arg
        (Printf.sprintf "Netlist.Builder.add_gate: cell %s expects %d inputs, got %d"
           cell.Cell.name cell.Cell.n_inputs (Array.length fanin));
    Array.iter
      (fun n ->
        if not (node_exists b n) then
          invalid_arg "Netlist.Builder.add_gate: fanin node does not exist")
      fanin;
    if wire_load < 0. then invalid_arg "Netlist.Builder.add_gate: negative wire load";
    let id = b.n_gate in
    let gate_name =
      match name with Some n -> n | None -> Printf.sprintf "g%d" id
    in
    b.rev_gates <- { id; gate_name; cell; fanin; wire_load } :: b.rev_gates;
    b.n_gate <- id + 1;
    Gate id

  let mark_po b ?name node =
    if not (node_exists b node) then
      invalid_arg "Netlist.Builder.mark_po: node does not exist";
    let name =
      match name with
      | Some n -> n
      | None -> Printf.sprintf "po%d" (List.length b.rev_pos)
    in
    b.rev_pos <- (node, name) :: b.rev_pos

  let build b : netlist =
    if b.rev_pos = [] then invalid_arg "Netlist.Builder.build: no primary output";
    let gates = Array.of_list (List.rev b.rev_gates) in
    let pos_pairs = List.rev b.rev_pos in
    let fanout = Array.make (Array.length gates) [] in
    Array.iter
      (fun g ->
        let seen = Hashtbl.create 4 in
        Array.iter
          (function
            | Pi _ -> ()
            | Gate src ->
                let m = try Hashtbl.find seen src with Not_found -> 0 in
                Hashtbl.replace seen src (m + 1))
          g.fanin;
        Hashtbl.iter (fun src m -> fanout.(src) <- (g.id, m) :: fanout.(src)) seen)
      gates;
    {
      name = b.bname;
      pis = Array.of_list (List.rev b.rev_pis);
      n_g = Array.length gates;
      gates_l = Lazy.from_val gates;
      pos = Array.of_list (List.map fst pos_pairs);
      po_names = Array.of_list (List.map snd pos_pairs);
      fanout_l = Lazy.from_val fanout;
      bucket_cache = None;
      flat_cache = None;
    }
end

let name t = t.name
let n_pis t = Array.length t.pis
let n_gates t = t.n_g
let n_pos t = Array.length t.pos
let gate t i = (Lazy.force t.gates_l).(i)
let gates t = Lazy.force t.gates_l
let pi_name t i = t.pis.(i)
let pos t = t.pos
let po_name t i = t.po_names.(i)
let fanout t i = (Lazy.force t.fanout_l).(i)

let load t ~sizes g =
  let gates = Lazy.force t.gates_l in
  let gate = gates.(g) in
  List.fold_left
    (fun acc (consumer, mult) ->
      let c = gates.(consumer) in
      acc +. (float_of_int mult *. Cell.input_cap c.cell ~size:sizes.(consumer)))
    gate.wire_load (Lazy.force t.fanout_l).(g)

let min_sizes t = Array.make (n_gates t) 1.

let levels t =
  let lvl = Array.make (n_gates t) 0 in
  Array.iter
    (fun g ->
      let m =
        Array.fold_left
          (fun acc -> function Pi _ -> acc | Gate i -> max acc lvl.(i))
          0 g.fanin
      in
      lvl.(g.id) <- m + 1)
    (Lazy.force t.gates_l);
  lvl

let depth t =
  match t.bucket_cache with
  | Some buckets -> Array.length buckets
  | None -> if n_gates t = 0 then 0 else Array.fold_left max 0 (levels t)

(* Level buckets from a per-gate level array (ascending-id iteration
   keeps every bucket sorted by gate id). *)
let buckets_of_levels lvl =
  let d = Array.fold_left max 0 lvl in
  let counts = Array.make d 0 in
  Array.iter (fun l -> counts.(l - 1) <- counts.(l - 1) + 1) lvl;
  let buckets = Array.map (fun c -> Array.make c 0) counts in
  let fill = Array.make d 0 in
  Array.iteri
    (fun id l ->
      buckets.(l - 1).(fill.(l - 1)) <- id;
      fill.(l - 1) <- fill.(l - 1) + 1)
    lvl;
  buckets

let compute_buckets t = buckets_of_levels (levels t)

let level_buckets t =
  match t.bucket_cache with
  | Some b -> b
  | None ->
      let b = compute_buckets t in
      t.bucket_cache <- Some b;
      b

(* Flat CSR encoding of the topology.  Fanin nodes are encoded as ints:
   [Gate g] is [g], [Pi i] is [-i - 1].  A fanout row lists one entry
   per distinct consumer, in descending consumer id: the order of the
   [fanout] adjacency lists [Builder.build] makes (consumers visited in
   ascending id and prepended), so a fold over a CSR row performs the
   same floating-point accumulation order as [load]'s list fold.

   The flat view renumbers the gates level-major: new ids are assigned
   level by level, ascending old id within a level, so each level's
   gates (and their interleaved arrival slots) occupy one contiguous,
   cache-blocked range [lvl_off.(l) .. lvl_off.(l+1) - 1].  [perm] /
   [inv_perm] carry the old<->new mapping; every per-gate column and
   every encoded gate reference in the flat view uses new ids.  The
   renumbering changes no floating-point operation: a gate's fanin and
   fanout rows keep their original within-row order (ids merely
   renamed), gates within a level are independent in the forward sweep,
   and descending-new-id within a level coincides with descending-old-id
   — the boxed reverse sweep's serial scatter order — because the
   permutation is monotone inside each level. *)
let encode_node = function Gate g -> g | Pi i -> -i - 1

(* Build the permuted flat view from old-id fanin columns, the old-id
   cells and wire loads.  The fanout rows are derived from the fanin
   rows straight into new-id columns, with no old-id fanout copy.
   Every column is filled by a loop, so no float is boxed on the way.
   Returns the flat view and the old-id level array (levels are
   1-based; PIs sit at level 0). *)
let build_flat ~fi_off:fi_off_o ~fi_node:fi_node_o ~po_node:po_node_o ~cells ~wire_loads =
  let n = Array.length cells in
  let lvl = Array.make n 0 in
  for g = 0 to n - 1 do
    let m = ref 0 in
    for j = fi_off_o.(g) to fi_off_o.(g + 1) - 1 do
      let e = fi_node_o.(j) in
      if e >= 0 && lvl.(e) > !m then m := lvl.(e)
    done;
    lvl.(g) <- !m + 1
  done;
  let d = Array.fold_left max 0 lvl in
  (* lvl_off.(0) = 0 (no gate sits at level 0); after the prefix sum
     lvl_off.(l) is the end of level l's new-id segment, so segment [l]
     (the gates of level l + 1) is [lvl_off.(l) .. lvl_off.(l+1) - 1]. *)
  let lvl_off = Array.make (d + 1) 0 in
  Array.iter (fun l -> lvl_off.(l) <- lvl_off.(l) + 1) lvl;
  for l = 1 to d do
    lvl_off.(l) <- lvl_off.(l) + lvl_off.(l - 1)
  done;
  let perm = Array.make n 0 in
  let inv_perm = Array.make n 0 in
  let fill = Array.sub lvl_off 0 (max 1 d) in
  for g = 0 to n - 1 do
    let l = lvl.(g) - 1 in
    let i = fill.(l) in
    perm.(g) <- i;
    inv_perm.(i) <- g;
    fill.(l) <- i + 1
  done;
  let map_node e = if e >= 0 then perm.(e) else e in
  let fi_off = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    let o = inv_perm.(i) in
    fi_off.(i + 1) <- fi_off.(i) + (fi_off_o.(o + 1) - fi_off_o.(o))
  done;
  let nfi = fi_off.(n) in
  let fi_node = Array.make (max 1 nfi) 0 in
  for i = 0 to n - 1 do
    let o = inv_perm.(i) in
    let b = fi_off.(i) and bo = fi_off_o.(o) in
    for j = 0 to fi_off_o.(o + 1) - bo - 1 do
      fi_node.(b + j) <- map_node fi_node_o.(bo + j)
    done
  done;
  (* Fanout: one entry per distinct (driver, consumer) pair, counted at
     its first occurrence in the consumer's fanin row (multiplicities
     folded in).  [fo_off.(d)] first counts row [d], then holds its
     end; filling by decrement over ascending consumers leaves each row
     in descending consumer id and [fo_off.(d)] at its start. *)
  let row_first g j =
    let s = fi_node_o.(j) in
    let first = ref true in
    for k = fi_off_o.(g) to j - 1 do
      if fi_node_o.(k) = s then first := false
    done;
    !first
  in
  let fo_off = Array.make (n + 1) 0 in
  for g = 0 to n - 1 do
    for j = fi_off_o.(g) to fi_off_o.(g + 1) - 1 do
      let s = fi_node_o.(j) in
      if s >= 0 && row_first g j then fo_off.(perm.(s)) <- fo_off.(perm.(s)) + 1
    done
  done;
  for i = 1 to n - 1 do
    fo_off.(i) <- fo_off.(i) + fo_off.(i - 1)
  done;
  let nfo = if n = 0 then 0 else fo_off.(n - 1) in
  fo_off.(n) <- nfo;
  let fo_consumer = Array.make (max 1 nfo) 0 in
  let fo_mult = Array.make (max 1 nfo) 0. in
  let fo_cin = Array.make (max 1 nfo) 0. in
  for g = 0 to n - 1 do
    let lo = fi_off_o.(g) and hi = fi_off_o.(g + 1) in
    for j = lo to hi - 1 do
      let s = fi_node_o.(j) in
      if s >= 0 && row_first g j then begin
        let m = ref 0 in
        for k = lo to hi - 1 do
          if fi_node_o.(k) = s then incr m
        done;
        let d = perm.(s) in
        let k = fo_off.(d) - 1 in
        fo_off.(d) <- k;
        fo_consumer.(k) <- perm.(g);
        fo_mult.(k) <- float_of_int !m;
        fo_cin.(k) <- cells.(g).Cell.c_in
      end
    done
  done;
  let g_t_int = Array.create_float n and g_drive = Array.create_float n in
  let g_wire_load = Array.create_float n and g_max_size = Array.create_float n in
  let g_area = Array.create_float n in
  for i = 0 to n - 1 do
    let o = inv_perm.(i) in
    let c = cells.(o) in
    g_t_int.(i) <- c.Cell.t_int;
    g_drive.(i) <- c.Cell.drive;
    g_wire_load.(i) <- wire_loads.(o);
    g_max_size.(i) <- c.Cell.max_size;
    g_area.(i) <- c.Cell.area
  done;
  ( {
      perm;
      inv_perm;
      lvl_off;
      fi_off;
      fi_node;
      po_node = Array.map map_node po_node_o;
      po_base = nfi;
      fold_slots = nfi + Array.length po_node_o;
      fo_off;
      fo_consumer;
      fo_mult;
      fo_cin;
      g_t_int;
      g_drive;
      g_wire_load;
      g_max_size;
      g_area;
    },
    lvl )

(* Old-id fanin columns from the record graph, then the shared permuted
   build. *)
let compute_flat t =
  let n = n_gates t in
  let gates = Lazy.force t.gates_l in
  let fi_off = Array.make (n + 1) 0 in
  Array.iter
    (fun g -> fi_off.(g.id + 1) <- fi_off.(g.id) + Array.length g.fanin)
    gates;
  let fi_node = Array.make (max 1 fi_off.(n)) 0 in
  Array.iter
    (fun g ->
      let base = fi_off.(g.id) in
      Array.iteri (fun j nd -> fi_node.(base + j) <- encode_node nd) g.fanin)
    gates;
  let wire_loads = Array.create_float n in
  Array.iter (fun g -> wire_loads.(g.id) <- g.wire_load) gates;
  fst
    (build_flat ~fi_off ~fi_node ~po_node:(Array.map encode_node t.pos)
       ~cells:(Array.map (fun g -> g.cell) gates)
       ~wire_loads)

let flat t =
  match t.flat_cache with
  | Some f -> f
  | None ->
      let f = compute_flat t in
      t.flat_cache <- Some f;
      f

(* In old-id order, as a fold over the record view would sum. *)
let area t ~sizes =
  let fl = flat t in
  let g_area = fl.g_area and perm = fl.perm in
  let acc = ref 0. in
  for id = 0 to t.n_g - 1 do
    acc := !acc +. (g_area.(perm.(id)) *. sizes.(id))
  done;
  !acc

(* Size bounds straight from the flat columns, so a CSR-loaded netlist
   never materialises its record view to be validated.  Gates are
   checked in old-id order (the first offender reported is the lowest
   id); the message, and with it the record view for the gate's name,
   is built only in the failing branch. *)
let max_sizes t =
  let fl = flat t in
  let m = Array.create_float t.n_g in
  for id = 0 to t.n_g - 1 do
    Array.unsafe_set m id (Array.unsafe_get fl.g_max_size (Array.unsafe_get fl.perm id))
  done;
  m

let bad_size t fl id s =
  invalid_arg
    (Printf.sprintf "Netlist.check_sizes: size %g of gate %s outside [1, %g]" s
       (gate t id).gate_name fl.g_max_size.(fl.perm.(id)))

let check_sizes t (sizes : float array) =
  if Array.length sizes <> n_gates t then
    invalid_arg "Netlist.check_sizes: dimension mismatch";
  let fl = flat t in
  let gmax = fl.g_max_size and perm = fl.perm in
  for id = 0 to t.n_g - 1 do
    let s = Array.unsafe_get sizes id in
    if s < 1. -. 1e-9 || s > Array.unsafe_get gmax (Array.unsafe_get perm id) +. 1e-9
    then bad_size t fl id s
  done

let size_in_bounds t id s =
  let fl = flat t in
  not (s < 1. -. 1e-9 || s > fl.g_max_size.(fl.perm.(id)) +. 1e-9)

(* ---- streaming CSR construction ---------------------------------------------

   [of_csr] builds a netlist directly from old-id CSR columns — the
   entry point for loaders (Bench_format) that never build a record
   graph.  The permuted flat view and the level buckets are computed
   here, straight from the columns, and pre-seeded into the caches; the
   record planes ([gates] / [fanout]) are reconstructed lazily from the
   flat view and the old-id cells only if a record-level accessor is
   called.  A flat fanout row is in descending consumer id with its pin
   multiplicities, exactly the adjacency list [Builder.build] produces,
   so [flat] and [load] folds accumulate in the same floating-point
   order as a record-built netlist. *)
let of_csr ?(name = "csr") ~pi_names ~cells ~wire_loads ~fi_off ~fi_node ~pos
    ~po_names () =
  let n = Array.length cells in
  let n_pi = Array.length pi_names in
  if Array.length wire_loads <> n || Array.length fi_off <> n + 1 then
    invalid_arg "Netlist.of_csr: column length mismatch";
  if Array.length pos <> Array.length po_names || Array.length pos = 0 then
    invalid_arg "Netlist.of_csr: no primary output";
  for g = 0 to n - 1 do
    if fi_off.(g + 1) - fi_off.(g) <> cells.(g).Cell.n_inputs then
      invalid_arg
        (Printf.sprintf "Netlist.of_csr: cell %s expects %d inputs, got %d"
           cells.(g).Cell.name cells.(g).Cell.n_inputs
           (fi_off.(g + 1) - fi_off.(g)));
    if wire_loads.(g) < 0. then invalid_arg "Netlist.of_csr: negative wire load";
    for j = fi_off.(g) to fi_off.(g + 1) - 1 do
      let e = fi_node.(j) in
      if e >= g || -e - 1 >= n_pi then
        invalid_arg "Netlist.of_csr: fanin node does not exist"
    done
  done;
  Array.iter
    (function
      | Gate g when g >= 0 && g < n -> ()
      | Pi i when i >= 0 && i < n_pi -> ()
      | _ -> invalid_arg "Netlist.of_csr: primary output node does not exist")
    pos;
  let fl, lvl =
    build_flat ~fi_off ~fi_node ~po_node:(Array.map encode_node pos) ~cells ~wire_loads
  in
  let old_node e = if e >= 0 then Gate fl.inv_perm.(e) else Pi (-e - 1) in
  {
    name;
    pis = pi_names;
    n_g = n;
    gates_l =
      lazy
        (Array.init n (fun g ->
             let i = fl.perm.(g) in
             let b = fl.fi_off.(i) in
             {
               id = g;
               gate_name = Printf.sprintf "g%d" g;
               cell = cells.(g);
               fanin = Array.init (fl.fi_off.(i + 1) - b) (fun j -> old_node fl.fi_node.(b + j));
               wire_load = fl.g_wire_load.(i);
             }));
    pos;
    po_names;
    fanout_l =
      lazy
        (Array.init n (fun s ->
             let i = fl.perm.(s) in
             List.init (fl.fo_off.(i + 1) - fl.fo_off.(i)) (fun j ->
                 let k = fl.fo_off.(i) + j in
                 (fl.inv_perm.(fl.fo_consumer.(k)), int_of_float fl.fo_mult.(k)))));
    bucket_cache = Some (buckets_of_levels lvl);
    flat_cache = Some fl;
  }

type stats = {
  gates_count : int;
  pi_count : int;
  po_count : int;
  depth : int;
  max_fanout : int;
  avg_fanin : float;
}

let stats t =
  let max_fanout =
    Array.fold_left
      (fun acc l -> max acc (List.fold_left (fun a (_, m) -> a + m) 0 l))
      0 (Lazy.force t.fanout_l)
  in
  let total_fanin =
    Array.fold_left (fun acc g -> acc + Array.length g.fanin) 0 (Lazy.force t.gates_l)
  in
  {
    gates_count = n_gates t;
    pi_count = n_pis t;
    po_count = n_pos t;
    depth = depth t;
    max_fanout;
    avg_fanin =
      (if n_gates t = 0 then 0.
       else float_of_int total_fanin /. float_of_int (n_gates t));
  }

let pp_stats ppf s =
  Format.fprintf ppf
    "gates=%d pis=%d pos=%d depth=%d max_fanout=%d avg_fanin=%.2f" s.gates_count
    s.pi_count s.po_count s.depth s.max_fanout s.avg_fanin

let pp_summary ppf t = Format.fprintf ppf "%s: %a" t.name pp_stats (stats t)
