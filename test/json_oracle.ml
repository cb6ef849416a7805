(* Reference float printer for the serve codec's byte-equality tests:
   the three-sprintf rendering the production printer replaced.  It
   tries %.15g, then %.16g, each through sprintf and float_of_string,
   and falls back to %.17g; integral values below 1e15 print as %.0f.
   [to_string] renders a whole Json.t with it, so any reply can be
   checked byte for byte against what the old codec sent. *)

let number_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else if f <> f then "\"nan\""
  else if f = Float.infinity then "\"inf\""
  else if f = Float.neg_infinity then "\"-inf\""
  else
    let try_prec p =
      let s = Printf.sprintf "%.*g" p f in
      if float_of_string s = f then Some s else None
    in
    match try_prec 15 with
    | Some s -> s
    | None -> (
        match try_prec 16 with Some s -> s | None -> Printf.sprintf "%.17g" f)

(* Strings and structure render as Json.to_string does; only the numbers
   go through the printer above. *)
let to_string v =
  let b = Buffer.create 256 in
  let rec write = function
    | Serve.Json.Num f -> Buffer.add_string b (number_to_string f)
    | (Serve.Json.Null | Serve.Json.Bool _ | Serve.Json.Str _) as v ->
        Buffer.add_string b (Serve.Json.to_string v)
    | Serve.Json.List items ->
        Buffer.add_char b '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char b ',';
            write item)
          items;
        Buffer.add_char b ']'
    | Serve.Json.Obj fields ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char b ',';
            Buffer.add_string b (Serve.Json.to_string (Serve.Json.Str k));
            Buffer.add_char b ':';
            write v)
          fields;
        Buffer.add_char b '}'
  in
  write v;
  Buffer.contents b
