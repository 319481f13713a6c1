(* Sim.Probe: per-edge dispatch, subscription order, the unwatched-edge
   fast path, [active] and label interning. *)

module P = Sim.Probe

let every_edge = P.all

let recorder () =
  let seen = ref [] in
  let h edge ~cpu ~a ~b = seen := (edge, cpu, a, b) :: !seen in
  (seen, h)

let test_per_edge_dispatch () =
  let p = P.create () in
  let objs, h_objs = recorder () and qs, h_qs = recorder () in
  P.subscribe p [ Obj_alloc; Obj_pool ] h_objs;
  P.subscribe p [ Gp_qs ] h_qs;
  P.emit p Obj_alloc ~cpu:1 ~a:10 ~b:0;
  P.emit p Gp_qs ~cpu:2 ~a:3 ~b:0;
  P.emit p Obj_pool ~cpu:(-1) ~a:10 ~b:7;
  Alcotest.(check bool) "object handler saw only its edges, in order" true
    (List.rev !objs = [ (P.Obj_alloc, 1, 10, 0); (Obj_pool, -1, 10, 7) ]);
  Alcotest.(check bool) "qs handler saw only Gp_qs" true
    (!qs = [ (P.Gp_qs, 2, 3, 0) ])

let test_subscription_order () =
  let p = P.create () in
  let order = ref [] in
  List.iter
    (fun i ->
      P.subscribe p [ Obj_defer ] (fun _ ~cpu:_ ~a:_ ~b:_ ->
          order := i :: !order))
    [ 1; 2; 3 ];
  P.emit p Obj_defer ~cpu:0 ~a:0 ~b:0;
  Alcotest.(check (list int)) "handlers run in subscription order" [ 1; 2; 3 ]
    (List.rev !order)

let test_unwatched_edges_silent () =
  let p = P.create () in
  let watched = [ P.Reader_hold; Batch_seal ] in
  let calls = ref 0 in
  P.subscribe p watched (fun _ ~cpu:_ ~a:_ ~b:_ -> incr calls);
  List.iter
    (fun e -> if not (List.mem e watched) then P.emit p e ~cpu:0 ~a:1 ~b:2)
    every_edge;
  Alcotest.(check int) "no handler called for unwatched edges" 0 !calls;
  List.iter (fun e -> P.emit p e ~cpu:0 ~a:1 ~b:2) watched;
  Alcotest.(check int) "watched edges still dispatch" 2 !calls

let test_active () =
  let p = P.create () in
  Alcotest.(check bool) "nothing active on a fresh bus" false
    (List.exists (P.active p) every_edge);
  P.subscribe p [ Epoch_blocked ] (fun _ ~cpu:_ ~a:_ ~b:_ -> ());
  List.iter
    (fun e ->
      Alcotest.(check bool) "active iff subscribed" (e = P.Epoch_blocked)
        (P.active p e))
    every_edge

let test_intern () =
  let p = P.create () in
  let a = P.intern p "kmalloc-64" and b = P.intern p "page-allocator" in
  Alcotest.(check bool) "distinct names, distinct non-zero ids" true
    (a > 0 && b > 0 && a <> b);
  Alcotest.(check int) "same name, same id" a (P.intern p "kmalloc-64");
  Alcotest.(check int) "empty name is 0" 0 (P.intern p "");
  Alcotest.(check (list string)) "ids resolve back"
    [ "kmalloc-64"; "page-allocator"; ""; "" ]
    (List.map (P.label p) [ a; b; 0; 1_000 ])

let suite =
  [
    Alcotest.test_case "per-edge dispatch" `Quick test_per_edge_dispatch;
    Alcotest.test_case "subscription order within an edge" `Quick
      test_subscription_order;
    Alcotest.test_case "unwatched edges call no handler" `Quick
      test_unwatched_edges_silent;
    Alcotest.test_case "active" `Quick test_active;
    Alcotest.test_case "label interning" `Quick test_intern;
  ]
