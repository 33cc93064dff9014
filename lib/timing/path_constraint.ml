type t = {
  cname : string;
  sources : Delay_graph.node list;
  sinks : Delay_graph.node list;
  limit_ps : float;
}

exception Bad_constraint of string

let make ~name ~sources ~sinks ~limit_ps =
  if sources = [] then raise (Bad_constraint (name ^ ": no source terminals"));
  if sinks = [] then raise (Bad_constraint (name ^ ": no sink terminals"));
  if limit_ps <= 0.0 then raise (Bad_constraint (name ^ ": non-positive delay limit"));
  { cname = name; sources; sinks; limit_ps }
