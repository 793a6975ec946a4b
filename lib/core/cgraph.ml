module Var = Guarded.Var
module Action = Guarded.Action

type node = { id : int; label : string; vars : Guarded.Var.Set.t }

type pair = { constr : Constr.t; action : Guarded.Action.t }

type t = {
  nodes : node array;
  pairs : pair array;
  graph : int Dgraph.Digraph.t;
}

type error =
  | Overlapping_nodes of { node_a : string; node_b : string; var : string }
  | Unassigned_variable of { action : string; var : string }
  | No_writes of { action : string }
  | Writes_cross_nodes of { action : string }
  | Reads_too_wide of { action : string }

let pp_error ppf = function
  | Overlapping_nodes { node_a; node_b; var } ->
      Format.fprintf ppf "nodes %s and %s overlap on variable %s" node_a
        node_b var
  | Unassigned_variable { action; var } ->
      Format.fprintf ppf "variable %s of action %s is in no node" var action
  | No_writes { action } ->
      Format.fprintf ppf "action %s writes no variable" action
  | Writes_cross_nodes { action } ->
      Format.fprintf ppf "action %s writes variables of more than one node"
        action
  | Reads_too_wide { action } ->
      Format.fprintf ppf
        "action %s reads variables outside its source and target nodes" action

exception Err of error

let build ~nodes ~pairs =
  try
    let node_arr =
      Array.of_list
        (List.mapi (fun id (label, vars) -> { id; label; vars }) nodes)
    in
    (* mutual exclusivity of labels *)
    Array.iteri
      (fun i a ->
        Array.iteri
          (fun j b ->
            if i < j then
              match Var.Set.choose_opt (Var.Set.inter a.vars b.vars) with
              | Some v ->
                  raise
                    (Err
                       (Overlapping_nodes
                          {
                            node_a = a.label;
                            node_b = b.label;
                            var = Var.name v;
                          }))
              | None -> ())
          node_arr)
      node_arr;
    let node_of_var v =
      match
        Array.find_opt (fun n -> Var.Set.mem v n.vars) node_arr
      with
      | Some n -> Some n
      | None -> None
    in
    let pair_arr = Array.of_list pairs in
    let edges = ref [] in
    Array.iteri
      (fun idx { constr; action } ->
        let aname = Action.name action in
        let writes = Action.writes action in
        (match Var.Set.choose_opt writes with
        | None -> raise (Err (No_writes { action = aname }))
        | Some _ -> ());
        (* all variables mentioned anywhere must be assigned to nodes *)
        let mentioned =
          Var.Set.union (Action.touches action) (Constr.reads constr)
        in
        Var.Set.iter
          (fun v ->
            if node_of_var v = None then
              raise
                (Err (Unassigned_variable { action = aname; var = Var.name v })))
          mentioned;
        let dst =
          match
            Var.Set.fold
              (fun v acc ->
                match (node_of_var v, acc) with
                | Some n, None -> Some n
                | Some n, Some m when n.id = m.id -> acc
                | Some _, Some _ ->
                    raise (Err (Writes_cross_nodes { action = aname }))
                | None, _ -> assert false)
              writes None
          with
          | Some n -> n
          | None -> assert false
        in
        let reads =
          Var.Set.union (Action.reads action) (Constr.reads constr)
        in
        let outside = Var.Set.diff reads dst.vars in
        let src =
          Var.Set.fold
            (fun v acc ->
              match (node_of_var v, acc) with
              | Some n, None -> Some n
              | Some n, Some m when n.id = m.id -> acc
              | Some _, Some _ ->
                  raise (Err (Reads_too_wide { action = aname }))
              | None, _ -> assert false)
            outside None
        in
        let src = match src with Some n -> n | None -> dst in
        edges := (src.id, dst.id, idx) :: !edges)
      pair_arr;
    let graph =
      Dgraph.Digraph.of_edges (Array.length node_arr) (List.rev !edges)
    in
    Ok { nodes = node_arr; pairs = pair_arr; graph }
  with Err e -> Error e

let build_exn ~nodes ~pairs =
  match build ~nodes ~pairs with
  | Ok t -> t
  | Error e -> invalid_arg (Format.asprintf "Cgraph.build: %a" pp_error e)

let infer_nodes pairs =
  (* Union–find keyed by variable index. *)
  let parent : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let var_by_index : (int, Var.t) Hashtbl.t = Hashtbl.create 64 in
  let register v =
    let i = Var.index v in
    if not (Hashtbl.mem parent i) then Hashtbl.add parent i i;
    Hashtbl.replace var_by_index i v
  in
  let rec find i =
    let p = Hashtbl.find parent i in
    if p = i then i
    else begin
      let r = find p in
      Hashtbl.replace parent i r;
      r
    end
  in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then Hashtbl.replace parent ra rb
  in
  List.iter
    (fun { constr; action } ->
      Var.Set.iter register (Action.touches action);
      Var.Set.iter register (Constr.reads constr);
      match Var.Set.elements (Action.writes action) with
      | [] -> ()
      | w :: ws -> List.iter (fun v -> union (Var.index w) (Var.index v)) ws)
    pairs;
  let classes : (int, Var.t list) Hashtbl.t = Hashtbl.create 16 in
  Hashtbl.iter
    (fun i _ ->
      let r = find i in
      let v = Hashtbl.find var_by_index i in
      Hashtbl.replace classes r
        (v :: (try Hashtbl.find classes r with Not_found -> [])))
    parent;
  Hashtbl.fold
    (fun _ vars acc ->
      let vars = List.sort Var.compare vars in
      let label = String.concat "," (List.map Var.name vars) in
      (label, Var.Set.of_list vars) :: acc)
    classes []
  |> List.sort compare

let nodes t = Array.copy t.nodes
let pairs t = Array.copy t.pairs
let graph t = t.graph

let edge_of_pair t idx =
  let found = ref None in
  List.iter
    (fun (e : _ Dgraph.Digraph.edge) ->
      if e.label = idx then found := Some (e.src, e.dst))
    (Dgraph.Digraph.edges t.graph);
  match !found with
  | Some x -> x
  | None -> invalid_arg "Cgraph.edge_of_pair: no such pair"

let shape t = Dgraph.Classify.shape t.graph
let ranks t = Dgraph.Topo.ranks t.graph

let pair_rank t =
  match ranks t with
  | None -> None
  | Some node_ranks ->
      let r = Array.make (Array.length t.pairs) 0 in
      List.iter
        (fun (e : _ Dgraph.Digraph.edge) -> r.(e.label) <- node_ranks.(e.dst))
        (Dgraph.Digraph.edges t.graph);
      Some r

let constraints t = Array.to_list t.pairs |> List.map (fun p -> p.constr)
let actions t = Array.to_list t.pairs |> List.map (fun p -> p.action)

let to_dot t =
  Dgraph.Dot.to_dot ~name:"constraint-graph"
    ~node_label:(fun i -> t.nodes.(i).label)
    ~edge_label:(fun idx -> Constr.name t.pairs.(idx).constr)
    t.graph

let pp ppf t =
  Format.fprintf ppf "@[<v>constraint graph (%s):@,"
    (Dgraph.Classify.shape_to_string (shape t));
  List.iter
    (fun (e : _ Dgraph.Digraph.edge) ->
      Format.fprintf ppf "  %s --[%s]--> %s@," t.nodes.(e.src).label
        (Constr.name t.pairs.(e.label).constr)
        t.nodes.(e.dst).label)
    (Dgraph.Digraph.edges t.graph);
  Format.fprintf ppf "@]"
