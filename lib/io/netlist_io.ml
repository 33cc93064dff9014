let side_name = function Netlist.South -> "south" | Netlist.North -> "north"

let endpoint_name netlist = function
  | Netlist.Pin p ->
    Printf.sprintf "%s.%s" (Netlist.instance netlist p.Netlist.inst).Netlist.inst_name p.Netlist.term
  | Netlist.Port q -> "port:" ^ (Netlist.port netlist q).Netlist.port_name

let to_string netlist =
  let buf = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "# bgr netlist v1";
  line "library %s" (Cell_lib.name (Netlist.library netlist));
  Array.iter
    (fun (p : Netlist.port) ->
      match p.Netlist.column_hint with
      | None -> line "port %s %s" p.Netlist.port_name (side_name p.Netlist.side)
      | Some h -> line "port %s %s hint %d" p.Netlist.port_name (side_name p.Netlist.side) h)
    (Netlist.ports netlist);
  Array.iter
    (fun (i : Netlist.instance) -> line "inst %s %s" i.Netlist.inst_name i.Netlist.master.Cell.name)
    (Netlist.instances netlist);
  Array.iter
    (fun (n : Netlist.net) ->
      let pitch = if n.Netlist.pitch = 1 then "" else Printf.sprintf " pitch %d" n.Netlist.pitch in
      let sinks =
        List.map (fun s -> " sink " ^ endpoint_name netlist s) n.Netlist.sinks |> String.concat ""
      in
      line "net %s%s drive %s%s" n.Netlist.net_name pitch (endpoint_name netlist n.Netlist.driver)
        sinks)
    (Netlist.nets netlist);
  Array.iter
    (fun (n : Netlist.net) ->
      match n.Netlist.diff_partner with
      | Some p when p > n.Netlist.net_id ->
        line "diffpair %s %s" n.Netlist.net_name (Netlist.net netlist p).Netlist.net_name
      | Some _ | None -> ())
    (Netlist.nets netlist);
  Buffer.contents buf

type ctx = {
  builder : Netlist.builder;
  insts : (string, int) Hashtbl.t;
  ports : (string, int) Hashtbl.t;
  nets : (string, int) Hashtbl.t;
}

let parse_endpoint ctx ~line token =
  if String.length token > 5 && String.sub token 0 5 = "port:" then begin
    let name = String.sub token 5 (String.length token - 5) in
    match Hashtbl.find_opt ctx.ports name with
    | Some q -> Netlist.Port q
    | None -> Lineio.fail ~line "unknown port %s" name
  end
  else begin
    match String.index_opt token '.' with
    | None -> Lineio.fail ~line "endpoint %S is neither inst.term nor port:NAME" token
    | Some i ->
      let inst_name = String.sub token 0 i in
      let term = String.sub token (i + 1) (String.length token - i - 1) in
      (match Hashtbl.find_opt ctx.insts inst_name with
      | Some inst -> Netlist.Pin { Netlist.inst; term }
      | None -> Lineio.fail ~line "unknown instance %s" inst_name)
  end

let parse_side ~line = function
  | "south" -> Netlist.South
  | "north" -> Netlist.North
  | s -> Lineio.fail ~line "side must be south or north, got %S" s

(* sink lists: [sink EP]* with an optional leading [pitch N]. *)
let rec parse_sinks ctx ~line acc = function
  | [] -> List.rev acc
  | "sink" :: ep :: rest -> parse_sinks ctx ~line (parse_endpoint ctx ~line ep :: acc) rest
  | t :: _ -> Lineio.fail ~line "unexpected token %S in net line" t

let of_string ~libraries text =
  let lines = Lineio.tokenize text in
  let library = ref None in
  let ctx = ref None in
  let pending_pairs = ref [] in
  let get_ctx ~line =
    match !ctx with
    | Some c -> c
    | None -> Lineio.fail ~line "the library line must come first"
  in
  let on_line (line, tokens) =
    match tokens with
    | [ "library"; name ] ->
      (match List.find_opt (fun l -> Cell_lib.name l = name) libraries with
      | Some l ->
        library := Some l;
        ctx :=
          Some
            { builder = Netlist.builder ~library:l;
              insts = Hashtbl.create 64;
              ports = Hashtbl.create 16;
              nets = Hashtbl.create 64 }
      | None -> Lineio.fail ~line "unknown cell library %S" name)
    | "port" :: name :: side :: rest ->
      let c = get_ctx ~line in
      let column_hint =
        match rest with
        | [] -> None
        | [ "hint"; h ] -> Some (Lineio.int_field ~line ~what:"port hint" h)
        | _ -> Lineio.fail ~line "port syntax: port NAME SIDE [hint N]"
      in
      let id =
        match column_hint with
        | None -> Netlist.add_port c.builder ~name ~side:(parse_side ~line side) ()
        | Some h -> Netlist.add_port c.builder ~name ~side:(parse_side ~line side) ~column_hint:h ()
      in
      Hashtbl.replace c.ports name id
    | [ "inst"; name; cell ] ->
      let c = get_ctx ~line in
      (try Hashtbl.replace c.insts name (Netlist.add_instance c.builder ~name ~cell)
       with Netlist.Invalid m -> Lineio.fail ~line "%s" m)
    | "net" :: name :: rest ->
      let c = get_ctx ~line in
      let pitch, rest =
        match rest with
        | "pitch" :: p :: rest -> (Lineio.int_field ~line ~what:"pitch" p, rest)
        | rest -> (1, rest)
      in
      (match rest with
      | "drive" :: driver :: sink_tokens ->
        let driver = parse_endpoint c ~line driver in
        let sinks = parse_sinks c ~line [] sink_tokens in
        (try Hashtbl.replace c.nets name (Netlist.add_net c.builder ~name ~driver ~sinks ~pitch ())
         with Netlist.Invalid m -> Lineio.fail ~line "%s" m)
      | _ -> Lineio.fail ~line "net syntax: net NAME [pitch N] drive EP [sink EP]*")
    | [ "diffpair"; a; b ] ->
      let c = get_ctx ~line in
      pending_pairs := (line, c, a, b) :: !pending_pairs
    | t :: _ -> Lineio.fail ~line "unknown directive %S" t
    | [] -> ()
  in
  List.iter on_line lines;
  (match !library with
  | None -> Lineio.fail ~line:1 "missing library line"
  | Some _ -> ());
  List.iter
    (fun (line, c, a, b) ->
      let net name =
        match Hashtbl.find_opt c.nets name with
        | Some n -> n
        | None -> Lineio.fail ~line "diffpair references unknown net %s" name
      in
      try Netlist.pair_differential c.builder (net a) (net b)
      with Netlist.Invalid m -> Lineio.fail ~line "%s" m)
    (List.rev !pending_pairs);
  match !ctx with
  | Some c -> Netlist.freeze c.builder
  | None -> assert false
