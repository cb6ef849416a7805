(* Reference .bench elaborator for the loader's differential tests: the
   worklist formulation the production loader replaced.  Each round
   instantiates, in statement order, every remaining assignment whose
   arguments are all defined, through Netlist.Builder's record graph.
   O(depth x assignments) and deliberately naive; it carries its own
   copy of the line grammar, so the two implementations share nothing
   but Netlist and the cell library.  Only circuits both accept are
   compared, so it reports failures as a bare message. *)

open Circuit

type assign = { target : string; op : string; args : string list }
type statement = Input of string | Output of string | Assign of assign

exception Bad of string

let parse_line raw =
  let text =
    String.trim (match String.index_opt raw '#' with Some i -> String.sub raw 0 i | None -> raw)
  in
  let call s =
    match (String.index_opt s '(', String.rindex_opt s ')') with
    | Some o, Some c when c > o ->
        ( String.trim (String.sub s 0 o),
          String.sub s (o + 1) (c - o - 1)
          |> String.split_on_char ',' |> List.map String.trim
          |> List.filter (fun a -> a <> "") )
    | _ -> raise (Bad ("not a call: " ^ s))
  in
  if text = "" then None
  else
    match String.index_opt text '=' with
    | Some eq ->
        let op, args = call (String.sub text (eq + 1) (String.length text - eq - 1)) in
        Some
          (Assign
             { target = String.trim (String.sub text 0 eq); op = String.uppercase_ascii op; args })
    | None -> (
        match call text with
        | "INPUT", [ a ] -> Some (Input a)
        | "OUTPUT", [ a ] -> Some (Output a)
        | _ -> raise (Bad ("bad directive: " ^ text)))

let named library name =
  match Cell.Library.find library name with Some c -> c | None -> raise (Bad name)

(* Wide operators decompose into balanced trees; the tuple below is
   evaluated right to left, so a split builds its right half first. *)
let rec instantiate b library op fanin =
  let arity = List.length fanin in
  let direct cell = Netlist.Builder.add_gate b ~cell fanin in
  let split reduce_op =
    let k = arity / 2 in
    ( instantiate b library reduce_op (List.filteri (fun i _ -> i < k) fanin),
      instantiate b library reduce_op (List.filteri (fun i _ -> i >= k) fanin) )
  in
  let root op (l, r) =
    Netlist.Builder.add_gate b ~cell:(named library (String.lowercase_ascii op ^ "2")) [ l; r ]
  in
  match (op, arity) with
  | ("AND" | "OR"), 1 -> List.hd fanin
  | "NOT", 1 -> direct (named library "inv")
  | ("BUFF" | "BUF"), 1 -> direct (named library "buf")
  | ("AND" | "OR" | "NAND" | "NOR" | "XOR"), n when n >= 2 -> (
      match Cell.Library.find library (String.lowercase_ascii op ^ string_of_int n) with
      | Some cell -> direct cell
      | None -> (
          match op with
          | "AND" | "OR" -> root op (split op)
          | "NAND" -> root op (split "AND")
          | "NOR" -> root op (split "OR")
          | _ ->
              let cell = named library "xor2" in
              List.fold_left
                (fun acc x -> Netlist.Builder.add_gate b ~cell [ acc; x ])
                (List.hd fanin) (List.tl fanin)))
  | _ -> raise (Bad ("unsupported " ^ op))

let elaborate library text =
  let statements = List.filter_map parse_line (String.split_on_char '\n' text) in
  let b = Netlist.Builder.create ~name:"bench" () in
  let net_node = Hashtbl.create 64 in
  List.iter
    (function
      | Input name -> Hashtbl.replace net_node name (Netlist.Builder.add_pi b name)
      | Assign { target; op = "DFF"; _ } ->
          Hashtbl.replace net_node target (Netlist.Builder.add_pi b (target ^ "_ff"))
      | Output _ | Assign _ -> ())
    statements;
  let remaining =
    ref
      (List.filter_map
         (function Assign a when a.op <> "DFF" -> Some a | Input _ | Output _ | Assign _ -> None)
         statements)
  in
  while !remaining <> [] do
    let ready, blocked =
      List.partition (fun a -> List.for_all (Hashtbl.mem net_node) a.args) !remaining
    in
    if ready = [] then raise (Bad "cycle or undriven net");
    List.iter
      (fun { target; op; args } ->
        if Hashtbl.mem net_node target then raise (Bad ("driven twice: " ^ target));
        Hashtbl.replace net_node target
          (instantiate b library op (List.map (Hashtbl.find net_node) args)))
      ready;
    remaining := blocked
  done;
  List.iter
    (fun (net, label) ->
      match Hashtbl.find_opt net_node net with
      | Some n -> Netlist.Builder.mark_po b ~name:label n
      | None -> raise (Bad ("undriven output " ^ net)))
    (List.filter_map
       (function
         | Output name -> Some (name, name)
         | Assign { target; op = "DFF"; args = [ d ] } -> Some (d, target ^ "_d")
         | Input _ | Assign _ -> None)
       statements);
  Netlist.Builder.build b

let parse_string ~library text =
  match elaborate library text with
  | net -> Ok net
  | exception Bad m -> Error m
  | exception Invalid_argument m -> Error m
