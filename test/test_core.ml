(* Tests for the nonmask core: constraints, specs, constraint graphs,
   theorem validators, variant functions, and design helpers. *)

module Domain = Guarded.Domain
module Env = Guarded.Env
module State = Guarded.State
module Expr = Guarded.Expr
module Action = Guarded.Action
module Program = Guarded.Program
module Var = Guarded.Var
module Constr = Nonmask.Constr
module Spec = Nonmask.Spec
module Cgraph = Nonmask.Cgraph
module Theorems = Nonmask.Theorems
module Variant = Nonmask.Variant
module Design = Nonmask.Design
module Certify = Nonmask.Certify

let vset = Var.Set.of_list

(* --- Constr --- *)

let test_constr_basics () =
  let env = Env.create () in
  let x = Env.fresh env "x" (Domain.range 0 5) in
  let y = Env.fresh env "y" (Domain.range 0 5) in
  let open Expr in
  let c = Constr.make ~name:"x<y" (var x < var y) in
  let s = State.of_list env [ (x, 1); (y, 3) ] in
  Alcotest.(check bool) "holds" true (Constr.holds c s);
  Alcotest.(check bool) "compiled agrees" true (Constr.compile c s);
  State.set s y 0;
  Alcotest.(check bool) "violated" false (Constr.holds c s);
  Alcotest.(check (list string)) "reads" [ "x"; "y" ]
    (Var.Set.elements (Constr.reads c) |> List.map Var.name)

let test_constr_conj_and_count () =
  let env = Env.create () in
  let x = Env.fresh env "x" (Domain.range 0 5) in
  let open Expr in
  let c1 = Constr.make ~name:"pos" (var x > int 0) in
  let c2 = Constr.make ~name:"small" (var x < int 3) in
  let s = State.of_list env [ (x, 0) ] in
  Alcotest.(check int) "one violated" 1 (Constr.violated_count [ c1; c2 ] s);
  Alcotest.(check bool) "conj" false (Expr.eval s (Constr.conj [ c1; c2 ]));
  State.set s x 2;
  Alcotest.(check int) "none violated" 0 (Constr.violated_count [ c1; c2 ] s)

(* --- Spec --- *)

let test_spec_defaults () =
  let env = Env.create () in
  let x = Env.fresh env "x" (Domain.range 0 5) in
  let open Expr in
  let p = Program.make ~name:"p" env [] in
  let spec = Spec.make ~name:"s" ~program:p ~invariant:(var x = int 0) () in
  let s = State.make env in
  Alcotest.(check bool) "T defaults to true" true (Spec.fault_span_holds spec s);
  Alcotest.(check bool) "S at zero" true (Spec.invariant_holds spec s);
  State.set s x 1;
  Alcotest.(check bool) "S off zero" false (Spec.invariant_holds spec s)

(* --- Cgraph --- *)

let xyz_fixture () =
  let env = Env.create () in
  let x = Env.fresh env "x" (Domain.range 0 3) in
  let y = Env.fresh env "y" (Domain.range 0 4) in
  let z = Env.fresh env "z" (Domain.range 0 3) in
  (env, x, y, z)

let test_cgraph_build_out_tree () =
  let _, x, y, z = xyz_fixture () in
  let c1 = Expr.(Constr.make ~name:"ne" (var x <> var y)) in
  let c2 = Expr.(Constr.make ~name:"le" (var x <= var z)) in
  let a1 =
    Expr.(Action.make ~name:"bump-y" ~guard:(var x = var y) [ (y, var y + int 1) ])
  in
  let a2 = Expr.(Action.make ~name:"raise-z" ~guard:(var x > var z) [ (z, var x) ]) in
  let g =
    Cgraph.build_exn
      ~nodes:
        [ ("x", vset [ x ]); ("y", vset [ y ]); ("z", vset [ z ]) ]
      ~pairs:
        [
          { Cgraph.constr = c1; action = a1 };
          { Cgraph.constr = c2; action = a2 };
        ]
  in
  Alcotest.(check bool) "out-tree" true (Cgraph.shape g = Dgraph.Classify.Out_tree);
  Alcotest.(check (pair int int)) "edge 1 from x to y" (0, 1) (Cgraph.edge_of_pair g 0);
  Alcotest.(check (pair int int)) "edge 2 from x to z" (0, 2) (Cgraph.edge_of_pair g 1);
  (match Cgraph.ranks g with
  | Some r -> Alcotest.(check (array int)) "ranks" [| 1; 2; 2 |] r
  | None -> Alcotest.fail "ranks expected");
  match Cgraph.pair_rank g with
  | Some r -> Alcotest.(check (array int)) "pair ranks" [| 2; 2 |] r
  | None -> Alcotest.fail "pair ranks expected"

let test_cgraph_self_loop_edge () =
  let _, x, y, _ = xyz_fixture () in
  (* action reads and writes only x: a self-loop at node x *)
  let c = Expr.(Constr.make ~name:"xpos" (var x > int 0)) in
  let a = Expr.(Action.make ~name:"fix-x" ~guard:(var x = int 0) [ (x, int 1) ]) in
  let g =
    Cgraph.build_exn
      ~nodes:[ ("x", vset [ x ]); ("y", vset [ y ]) ]
      ~pairs:[ { Cgraph.constr = c; action = a } ]
  in
  let src, dst = Cgraph.edge_of_pair g 0 in
  Alcotest.(check (pair int int)) "self loop" (0, 0) (src, dst);
  Alcotest.(check bool) "self-looping shape" true
    (Cgraph.shape g = Dgraph.Classify.Self_looping)

let test_cgraph_errors () =
  let _, x, y, z = xyz_fixture () in
  let open Expr in
  let c = Constr.make ~name:"c" (var x = int 0) in
  (* overlapping node labels *)
  (match
     Cgraph.build
       ~nodes:[ ("a", vset [ x; y ]); ("b", vset [ y ]) ]
       ~pairs:[]
   with
  | Error (Cgraph.Overlapping_nodes _) -> ()
  | _ -> Alcotest.fail "expected overlap error");
  (* unassigned variable *)
  (match
     Cgraph.build
       ~nodes:[ ("x", vset [ x ]) ]
       ~pairs:
         [
           {
             Cgraph.constr = c;
             action = Action.make ~name:"a" ~guard:(var y = int 0) [ (x, int 1) ];
           };
         ]
   with
  | Error (Cgraph.Unassigned_variable _) -> ()
  | _ -> Alcotest.fail "expected unassigned error");
  (* no writes *)
  (match
     Cgraph.build
       ~nodes:[ ("x", vset [ x ]) ]
       ~pairs:
         [ { Cgraph.constr = c; action = Action.make ~name:"a" ~guard:tt [] } ]
   with
  | Error (Cgraph.No_writes _) -> ()
  | _ -> Alcotest.fail "expected no-writes error");
  (* writes split across nodes *)
  (match
     Cgraph.build
       ~nodes:[ ("x", vset [ x ]); ("y", vset [ y ]) ]
       ~pairs:
         [
           {
             Cgraph.constr = c;
             action =
               Action.make ~name:"a" ~guard:tt [ (x, int 1); (y, int 1) ];
           };
         ]
   with
  | Error (Cgraph.Writes_cross_nodes _) -> ()
  | _ -> Alcotest.fail "expected cross-writes error");
  (* reads from three nodes *)
  match
    Cgraph.build
      ~nodes:[ ("x", vset [ x ]); ("y", vset [ y ]); ("z", vset [ z ]) ]
      ~pairs:
        [
          {
            Cgraph.constr = c;
            action =
              Action.make ~name:"a"
                ~guard:(var y = var z)
                [ (x, int 1) ];
          };
        ]
  with
  | Error (Cgraph.Reads_too_wide _) -> ()
  | _ -> Alcotest.fail "expected too-wide error"

let test_cgraph_infer_nodes () =
  let _, x, y, z = xyz_fixture () in
  let c1 = Expr.(Constr.make ~name:"ne" (var x <> var y)) in
  let c2 = Expr.(Constr.make ~name:"le" (var x <= var z)) in
  let pairs =
    [
      {
        Cgraph.constr = c1;
        action =
          Expr.(
            Action.make ~name:"a1" ~guard:(var x = var y) [ (y, var y + int 1) ]);
      };
      {
        Cgraph.constr = c2;
        action = Expr.(Action.make ~name:"a2" ~guard:(var x > var z) [ (z, var x) ]);
      };
    ]
  in
  let nodes = Cgraph.infer_nodes pairs in
  Alcotest.(check int) "three singleton nodes" 3 (List.length nodes);
  let g = Cgraph.build_exn ~nodes ~pairs in
  Alcotest.(check bool) "buildable and out-tree" true
    (Cgraph.shape g = Dgraph.Classify.Out_tree)

let test_cgraph_infer_merges_write_sets () =
  let env = Env.create () in
  let a = Env.fresh env "a" (Domain.range 0 1) in
  let b = Env.fresh env "b" (Domain.range 0 1) in
  let open Expr in
  let c = Constr.make ~name:"c" (var a = var b) in
  let pairs =
    [
      {
        Cgraph.constr = c;
        action =
          Action.make ~name:"w" ~guard:(var a <> var b)
            [ (a, int 0); (b, int 0) ];
      };
    ]
  in
  let nodes = Cgraph.infer_nodes pairs in
  Alcotest.(check int) "merged into one node" 1 (List.length nodes)

let test_cgraph_dot () =
  let _, x, y, _ = xyz_fixture () in
  let open Expr in
  let c = Constr.make ~name:"ne" (var x <> var y) in
  let g =
    Cgraph.build_exn
      ~nodes:[ ("x", vset [ x ]); ("y", vset [ y ]) ]
      ~pairs:
        [
          {
            Cgraph.constr = c;
            action =
              Action.make ~name:"a" ~guard:(var x = var y)
                [ (y, var y + int 1) ];
          };
        ]
  in
  let dot = Cgraph.to_dot g in
  Alcotest.(check bool) "mentions constraint" true
    (Astring_contains.contains dot "ne")

(* --- Theorems: a hand-built miniature --- *)

(* One constraint c: x = y, convergence action y := x; one closure action
   that increments both together. Constraint graph {x} -> {y}: out-tree. *)
let mini_spec () =
  let env = Env.create () in
  let x = Env.fresh env "x" (Domain.range 0 2) in
  let y = Env.fresh env "y" (Domain.range 0 2) in
  let open Expr in
  let closure =
    Action.make ~name:"step"
      ~guard:(var x = var y && var x < int 2)
      [ (x, var x + int 1); (y, var y + int 1) ]
  in
  let p = Program.make ~name:"mini" env [ closure ] in
  let c = Constr.make ~name:"agree" (var x = var y) in
  let spec =
    Spec.make ~name:"mini" ~program:p ~invariant:(Constr.pred c) ()
  in
  let pair =
    {
      Cgraph.constr = c;
      action = Design.convergence_action ~name:"sync" c [ (y, var x) ];
    }
  in
  let g =
    Cgraph.build_exn
      ~nodes:[ ("x", vset [ x ]); ("y", vset [ y ]) ]
      ~pairs:[ pair ]
  in
  (env, x, y, spec, g)

let test_theorem1_valid_mini () =
  let env, _, _, spec, g = mini_spec () in
  let engine = Explore.Engine.create env in
  let cert = Theorems.validate_theorem1 ~engine ~spec ~cgraph:g in
  Alcotest.(check bool) "valid" true (Certify.ok cert);
  Alcotest.(check bool) "theorem name" true (cert.Certify.theorem = "Theorem 1")

let test_theorem1_catches_bad_closure () =
  (* a closure action that breaks the constraint *)
  let env = Env.create () in
  let x = Env.fresh env "x" (Domain.range 0 2) in
  let y = Env.fresh env "y" (Domain.range 0 2) in
  let open Expr in
  let bad =
    Action.make ~name:"bad" ~guard:(var x < int 2) [ (x, var x + int 1) ]
  in
  let p = Program.make ~name:"bad" env [ bad ] in
  let c = Constr.make ~name:"agree" (var x = var y) in
  let spec = Spec.make ~name:"bad" ~program:p ~invariant:(Constr.pred c) () in
  let pair =
    {
      Cgraph.constr = c;
      action = Design.convergence_action ~name:"sync" c [ (y, var x) ];
    }
  in
  let g =
    Cgraph.build_exn
      ~nodes:[ ("x", vset [ x ]); ("y", vset [ y ]) ]
      ~pairs:[ pair ]
  in
  let engine = Explore.Engine.create env in
  let cert = Theorems.validate_theorem1 ~engine ~spec ~cgraph:g in
  Alcotest.(check bool) "invalid" false (Certify.ok cert);
  Alcotest.(check bool) "some failure names the bad action" true
    (List.exists
       (fun ch ->
         Astring_contains.contains ch.Certify.label "bad")
       (Certify.failures cert))

let test_theorem1_rejects_non_out_tree () =
  (* two convergence actions writing the same node: not an out-tree *)
  let env = Env.create () in
  let x = Env.fresh env "x" (Domain.range (-1) 2) in
  let y = Env.fresh env "y" (Domain.range 0 2) in
  let z = Env.fresh env "z" (Domain.range 0 2) in
  let open Expr in
  let p = Program.make ~name:"none" env [] in
  let c1 = Constr.make ~name:"ne" (var x <> var y) in
  let c2 = Constr.make ~name:"le" (var x <= var z) in
  let spec =
    Spec.make ~name:"t" ~program:p ~invariant:(Constr.conj [ c1; c2 ]) ()
  in
  let pairs =
    [
      {
        Cgraph.constr = c2;
        action = Action.make ~name:"lower" ~guard:(var x > var z) [ (x, var z) ];
      };
      {
        Cgraph.constr = c1;
        action =
          Action.make ~name:"dec" ~guard:(var x = var y) [ (x, var x - int 1) ];
      };
    ]
  in
  let g =
    Cgraph.build_exn
      ~nodes:[ ("x", vset [ x ]); ("y", vset [ y ]); ("z", vset [ z ]) ]
      ~pairs
  in
  let engine = Explore.Engine.create env in
  let cert1 = Theorems.validate_theorem1 ~engine ~spec ~cgraph:g in
  Alcotest.(check bool) "thm1 shape check fails" false (Certify.ok cert1);
  let cert2 = Theorems.validate_theorem2 ~engine ~spec ~cgraph:g in
  Alcotest.(check bool) "thm2 accepts with good order" true (Certify.ok cert2)

let test_theorem2_ordering_matters () =
  (* same as above but with the order that does NOT discharge: the
     decrement first, then lower-x, whose preservation of x<>y fails *)
  let env = Env.create () in
  let x = Env.fresh env "x" (Domain.range (-1) 2) in
  let y = Env.fresh env "y" (Domain.range 0 2) in
  let z = Env.fresh env "z" (Domain.range 0 2) in
  let open Expr in
  let p = Program.make ~name:"none" env [] in
  let c1 = Constr.make ~name:"ne" (var x <> var y) in
  let c2 = Constr.make ~name:"le" (var x <= var z) in
  let spec =
    Spec.make ~name:"t" ~program:p ~invariant:(Constr.conj [ c1; c2 ]) ()
  in
  let pairs =
    [
      {
        Cgraph.constr = c1;
        action =
          Action.make ~name:"dec" ~guard:(var x = var y) [ (x, var x - int 1) ];
      };
      {
        Cgraph.constr = c2;
        action = Action.make ~name:"lower" ~guard:(var x > var z) [ (x, var z) ];
      };
    ]
  in
  let g =
    Cgraph.build_exn
      ~nodes:[ ("x", vset [ x ]); ("y", vset [ y ]); ("z", vset [ z ]) ]
      ~pairs
  in
  let engine = Explore.Engine.create env in
  let cert = Theorems.validate_theorem2 ~engine ~spec ~cgraph:g in
  Alcotest.(check bool) "bad order rejected" false (Certify.ok cert);
  Alcotest.(check bool) "failure mentions ordering" true
    (List.exists
       (fun ch -> Astring_contains.contains ch.Certify.label "ordering")
       (Certify.failures cert))

let test_augmented_program_dedup () =
  let env, _, _, spec, g = mini_spec () in
  ignore env;
  let p = Theorems.augmented_program spec [ g ] in
  Alcotest.(check int) "closure + conv" 2 (Program.action_count p);
  Alcotest.(check bool) "closure kept" true (Program.find_action p "step" <> None);
  Alcotest.(check bool) "convergence added" true
    (Program.find_action p "sync" <> None)

(* One failure of each obligation form, rendered in full: an implication
   (the guard misses a violation: "counterexample …"), an establishes
   step ("pre … -> post …") and a preserves step (the closure
   violation). The witness is the first failing state in id order. *)
let test_theorem_failure_details () =
  let env = Env.create () in
  let x = Env.fresh env "x" (Domain.range 0 2) in
  let y = Env.fresh env "y" (Domain.range 0 2) in
  let open Expr in
  let bad =
    Action.make ~name:"bad" ~guard:(var x < int 2) [ (x, var x + int 1) ]
  in
  let p = Program.make ~name:"bad" env [ bad ] in
  let c = Constr.make ~name:"agree" (var x = var y) in
  let spec =
    Spec.make ~name:"details" ~program:p ~invariant:(Constr.pred c) ()
  in
  let pair =
    {
      Cgraph.constr = c;
      action =
        Action.make ~name:"bump"
          ~guard:(var x <> var y && var x < int 2)
          [ (y, (var y + int 1) mod int 3) ];
    }
  in
  let g =
    Cgraph.build_exn
      ~nodes:[ ("x", vset [ x ]); ("y", vset [ y ]) ]
      ~pairs:[ pair ]
  in
  let engine = Explore.Engine.create env in
  let cert = Theorems.validate_theorem1 ~engine ~spec ~cgraph:g in
  Alcotest.(check string) "full certificate"
    (String.concat "\n"
       [
         "Theorem 1 certificate for details: INVALID";
         "  graph q: out-tree";
         "  [ok] S implies T";
         "  [ok] T and all constraints imply S";
         "  [FAIL] closure bad preserves S";
         "    action bad violates the predicate:";
         "pre  = {x=0, y=0}";
         "post = {x=1, y=0}";
         "  [ok] closure bad preserves T";
         "  [ok] convergence bump preserves T";
         "  [ok] convergence bump preserves S";
         "  [ok] bump enabled only when agree violated";
         "  [FAIL] bump enabled whenever agree violated";
         "    counterexample {x=2, y=0}";
         "  [FAIL] bump establishes agree";
         "    pre {x=0, y=1} -> post {x=0, y=2}";
         "  [ok] constraint graph of q is out-tree";
         "  [FAIL] closure bad preserves agree under H_0";
         "    action bad violates the predicate:";
         "pre  = {x=0, y=0}";
         "post = {x=1, y=0}";
         "";
       ])
    (Format.asprintf "%a" Certify.pp_full cert)

(* --- Variant --- *)

let test_variant_mini () =
  let env, x, y, spec, g = mini_spec () in
  match Variant.of_cgraph g with
  | None -> Alcotest.fail "ranks exist"
  | Some v ->
      (* node {x} has rank 1, node {y} rank 2; the only pair targets {y} *)
      Alcotest.(check int) "two ranks" 2 (Variant.rank_count v);
      let s = State.of_list env [ (x, 1); (y, 0) ] in
      Alcotest.(check (array int)) "violation at rank 2" [| 0; 1 |]
        (Variant.value v s);
      Alcotest.(check int) "total" 1 (Variant.total_violations v s);
      let engine = Explore.Engine.create env in
      (match Variant.check ~engine ~spec ~cgraph:g v with
      | Ok () -> ()
      | Error f ->
          Alcotest.failf "variant check failed on %s" f.Variant.action)

let test_variant_lex_compare () =
  Alcotest.(check bool) "lex" true (Variant.compare_values [| 0; 5 |] [| 1; 0 |] < 0);
  Alcotest.(check bool) "eq" true (Variant.compare_values [| 1; 2 |] [| 1; 2 |] = 0);
  Alcotest.(check bool) "gt" true (Variant.compare_values [| 2; 0 |] [| 1; 9 |] > 0)

let test_variant_catches_nondecreasing () =
  (* convergence action that does not establish its constraint *)
  let env = Env.create () in
  let x = Env.fresh env "x" (Domain.range 0 2) in
  let y = Env.fresh env "y" (Domain.range 0 2) in
  let open Expr in
  let p = Program.make ~name:"none" env [] in
  let c = Constr.make ~name:"agree" (var x = var y) in
  let spec = Spec.make ~name:"v" ~program:p ~invariant:(Constr.pred c) () in
  let pair =
    {
      Cgraph.constr = c;
      action =
        (* rotates y without establishing equality in general *)
        Action.make ~name:"rot"
          ~guard:(var x <> var y)
          [ (y, (var y + int 1) mod int 3) ];
    }
  in
  let g =
    Cgraph.build_exn
      ~nodes:[ ("x", vset [ x ]); ("y", vset [ y ]) ]
      ~pairs:[ pair ]
  in
  let engine = Explore.Engine.create env in
  match Variant.of_cgraph g with
  | None -> Alcotest.fail "ranks exist"
  | Some v -> (
      match Variant.check ~engine ~spec ~cgraph:g v with
      | Ok () -> Alcotest.fail "should catch non-decrease"
      | Error f ->
          Alcotest.(check string) "culprit" "rot" f.Variant.action)

(* --- Design --- *)

let test_design_convergence_action () =
  let env = Env.create () in
  let x = Env.fresh env "x" (Domain.range 0 2) in
  let y = Env.fresh env "y" (Domain.range 0 2) in
  let open Expr in
  let c = Constr.make ~name:"agree" (var x = var y) in
  let a = Design.convergence_action ~name:"sync" c [ (y, var x) ] in
  let s = State.of_list env [ (x, 1); (y, 0) ] in
  Alcotest.(check bool) "enabled on violation" true (Action.enabled a s);
  State.set s y 1;
  Alcotest.(check bool) "disabled when satisfied" false (Action.enabled a s)

let test_design_same_statement_and_combine () =
  let env = Env.create () in
  let x = Env.fresh env "x" (Domain.range 0 2) in
  let y = Env.fresh env "y" (Domain.range 0 2) in
  let open Expr in
  let a = Action.make ~name:"a" ~guard:(var x = int 0) [ (y, var x) ] in
  let b = Action.make ~name:"b" ~guard:(var x = int 1) [ (y, var x) ] in
  let c = Action.make ~name:"c" ~guard:tt [ (y, int 0) ] in
  Alcotest.(check bool) "same" true (Design.same_statement a b);
  Alcotest.(check bool) "different" false (Design.same_statement a c);
  let merged = Design.combine ~name:"ab" a b in
  let s0 = State.of_list env [ (x, 0); (y, 2) ] in
  let s1 = State.of_list env [ (x, 1); (y, 2) ] in
  let s2 = State.of_list env [ (x, 2); (y, 2) ] in
  Alcotest.(check bool) "enabled via a" true (Action.enabled merged s0);
  Alcotest.(check bool) "enabled via b" true (Action.enabled merged s1);
  Alcotest.(check bool) "disabled" false (Action.enabled merged s2);
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Design.combine: statements differ") (fun () ->
      ignore (Design.combine ~name:"x" a c))

let test_design_simplify_action () =
  let env = Env.create () in
  let x = Env.fresh env "x" (Domain.range 0 2) in
  let open Expr in
  let a =
    Action.make ~name:"a"
      ~guard:(tt && var x = int 1)
      [ (x, var x + int 0) ]
  in
  let a' = Design.simplify_action a in
  Alcotest.(check bool) "guard simplified" true
    (Expr.equal (Action.guard a') (var x = int 1));
  Alcotest.(check bool) "rhs simplified" true
    (Expr.equal_num (snd (List.hd (Action.assigns a'))) (var x))

(* --- Certify --- *)

let test_certify_rendering () =
  let cert =
    {
      Certify.theorem = "Theorem 1";
      spec_name = "demo";
      shapes = [ ("q", Dgraph.Classify.Out_tree) ];
      checks =
        [ Certify.check_pass "good"; Certify.check_fail "bad" ~detail:"boom" ];
      summary = None;
    }
  in
  Alcotest.(check bool) "not ok" false (Certify.ok cert);
  Alcotest.(check int) "one failure" 1 (List.length (Certify.failures cert));
  let rendered = Format.asprintf "%a" Certify.pp cert in
  Alcotest.(check bool) "mentions INVALID" true
    (Astring_contains.contains rendered "INVALID");
  Alcotest.(check bool) "mentions detail" true
    (Astring_contains.contains rendered "boom")

let suite =
  [
    Alcotest.test_case "constr basics" `Quick test_constr_basics;
    Alcotest.test_case "constr conj/count" `Quick test_constr_conj_and_count;
    Alcotest.test_case "spec defaults" `Quick test_spec_defaults;
    Alcotest.test_case "cgraph out-tree build" `Quick test_cgraph_build_out_tree;
    Alcotest.test_case "cgraph self loop" `Quick test_cgraph_self_loop_edge;
    Alcotest.test_case "cgraph build errors" `Quick test_cgraph_errors;
    Alcotest.test_case "cgraph infer nodes" `Quick test_cgraph_infer_nodes;
    Alcotest.test_case "cgraph infer merges" `Quick test_cgraph_infer_merges_write_sets;
    Alcotest.test_case "cgraph dot" `Quick test_cgraph_dot;
    Alcotest.test_case "theorem1 valid mini" `Quick test_theorem1_valid_mini;
    Alcotest.test_case "theorem1 bad closure" `Quick test_theorem1_catches_bad_closure;
    Alcotest.test_case "theorem1 rejects non-out-tree" `Quick
      test_theorem1_rejects_non_out_tree;
    Alcotest.test_case "theorem2 ordering" `Quick test_theorem2_ordering_matters;
    Alcotest.test_case "augmented program" `Quick test_augmented_program_dedup;
    Alcotest.test_case "variant mini" `Quick test_variant_mini;
    Alcotest.test_case "variant lex compare" `Quick test_variant_lex_compare;
    Alcotest.test_case "variant catches non-decrease" `Quick
      test_variant_catches_nondecreasing;
    Alcotest.test_case "design convergence action" `Quick
      test_design_convergence_action;
    Alcotest.test_case "design combine" `Quick test_design_same_statement_and_combine;
    Alcotest.test_case "design simplify" `Quick test_design_simplify_action;
    Alcotest.test_case "certify rendering" `Quick test_certify_rendering;
    Alcotest.test_case "theorem failure details" `Quick
      test_theorem_failure_details;
  ]
