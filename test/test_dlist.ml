let test_push_iterate () =
  let l = Sim.Dlist.create () in
  ignore (Sim.Dlist.push_back l 1);
  ignore (Sim.Dlist.push_back l 2);
  ignore (Sim.Dlist.push_front l 0);
  Alcotest.(check (list int)) "order" [ 0; 1; 2 ] (Sim.Dlist.to_list l);
  Alcotest.(check int) "length" 3 (Sim.Dlist.length l)

let test_remove_middle () =
  let l = Sim.Dlist.create () in
  let _a = Sim.Dlist.push_back l "a" in
  let b = Sim.Dlist.push_back l "b" in
  let _c = Sim.Dlist.push_back l "c" in
  Sim.Dlist.remove l b;
  Alcotest.(check (list string)) "middle removed" [ "a"; "c" ]
    (Sim.Dlist.to_list l)

let test_remove_ends () =
  let l = Sim.Dlist.create () in
  let a = Sim.Dlist.push_back l 1 in
  let _b = Sim.Dlist.push_back l 2 in
  let c = Sim.Dlist.push_back l 3 in
  Sim.Dlist.remove l a;
  Sim.Dlist.remove l c;
  Alcotest.(check (list int)) "ends removed" [ 2 ] (Sim.Dlist.to_list l)

let test_remove_only_element () =
  let l = Sim.Dlist.create () in
  let a = Sim.Dlist.push_back l 9 in
  Sim.Dlist.remove l a;
  Alcotest.(check bool) "empty" true (Sim.Dlist.is_empty l);
  ignore (Sim.Dlist.push_back l 10);
  Alcotest.(check (list int)) "usable after emptying" [ 10 ]
    (Sim.Dlist.to_list l)

let test_double_remove_rejected () =
  let l = Sim.Dlist.create () in
  let a = Sim.Dlist.push_back l 1 in
  Sim.Dlist.remove l a;
  (try
     Sim.Dlist.remove l a;
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

let test_remove_foreign_rejected () =
  let l1 = Sim.Dlist.create () in
  let l2 = Sim.Dlist.create () in
  let a = Sim.Dlist.push_back l1 1 in
  (try
     Sim.Dlist.remove l2 a;
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

let test_pop_front () =
  let l = Sim.Dlist.create () in
  ignore (Sim.Dlist.push_back l 1);
  ignore (Sim.Dlist.push_back l 2);
  Alcotest.(check (option int)) "peek" (Some 1) (Sim.Dlist.peek_front l);
  Alcotest.(check (option int)) "pop" (Some 1) (Sim.Dlist.pop_front l);
  Alcotest.(check (option int)) "pop" (Some 2) (Sim.Dlist.pop_front l);
  Alcotest.(check (option int)) "empty pop" None (Sim.Dlist.pop_front l)

(* Cursor walks both ways, and a walk that reads [next] before removing
   the node survives the removal. *)
let test_cursor () =
  let l = Sim.Dlist.create () in
  List.iter (fun x -> ignore (Sim.Dlist.push_back l x)) [ 1; 2; 3; 4; 5 ];
  let walk start step =
    let rec go c acc =
      if Sim.Dlist.is_none c then List.rev acc
      else go (step c) (Sim.Dlist.value c :: acc)
    in
    go start []
  in
  Alcotest.(check (list int)) "forward" [ 1; 2; 3; 4; 5 ]
    (walk (Sim.Dlist.first l) Sim.Dlist.next);
  Alcotest.(check (list int)) "backward" [ 5; 4; 3; 2; 1 ]
    (walk (Sim.Dlist.last l) Sim.Dlist.prev);
  let c = ref (Sim.Dlist.first l) in
  while not (Sim.Dlist.is_none !c) do
    let n = !c in
    c := Sim.Dlist.next n;
    if Sim.Dlist.value n mod 2 = 0 then Sim.Dlist.remove l n
  done;
  Alcotest.(check (list int)) "evens removed mid-walk" [ 1; 3; 5 ]
    (Sim.Dlist.to_list l);
  Alcotest.(check bool) "empty list has no first" true
    (Sim.Dlist.is_none (Sim.Dlist.first (Sim.Dlist.create ())))

(* A removed node is re-linked, not rebuilt: the handle moves between
   lists for its whole life, and linking a linked node is refused. *)
let test_relink () =
  let a = Sim.Dlist.create () and b = Sim.Dlist.create () in
  let n = Sim.Dlist.push_back a 7 in
  ignore (Sim.Dlist.push_back b 8);
  Sim.Dlist.remove a n;
  Alcotest.(check bool) "detached" false (Sim.Dlist.linked n);
  Sim.Dlist.link_front b n;
  Alcotest.(check (list int)) "moved to the front of b" [ 7; 8 ]
    (Sim.Dlist.to_list b);
  Alcotest.(check bool) "a empty" true (Sim.Dlist.is_empty a);
  (try
     Sim.Dlist.link_back a n;
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ());
  Alcotest.(check bool) "none is not linked" false
    (Sim.Dlist.linked Sim.Dlist.none)

let test_fold_exists () =
  let l = Sim.Dlist.create () in
  List.iter (fun x -> ignore (Sim.Dlist.push_back l x)) [ 1; 2; 3 ];
  Alcotest.(check int) "fold sum" 6 (Sim.Dlist.fold ( + ) 0 l);
  Alcotest.(check bool) "exists" true (Sim.Dlist.exists (fun x -> x = 2) l);
  Alcotest.(check bool) "not exists" false (Sim.Dlist.exists (fun x -> x = 9) l)

let prop_model_check =
  QCheck.Test.make ~name:"dlist behaves like a list under random ops"
    ~count:300
    QCheck.(list (pair (int_bound 2) small_int))
    (fun ops ->
      let l = Sim.Dlist.create () in
      let handles = ref [] in
      let model = ref [] in
      List.iter
        (fun (op, v) ->
          match op with
          | 0 ->
              handles := !handles @ [ Sim.Dlist.push_back l v ];
              model := !model @ [ v ]
          | 1 ->
              handles := Sim.Dlist.push_front l v :: !handles;
              model := v :: !model
          | _ -> (
              match !handles with
              | [] -> ()
              | h :: rest ->
                  let v = Sim.Dlist.value h in
                  Sim.Dlist.remove l h;
                  handles := rest;
                  let rec remove_one = function
                    | [] -> []
                    | x :: r when x = v -> r
                    | x :: r -> x :: remove_one r
                  in
                  model := remove_one !model))
        ops;
      (* The model is order-correct only for multiset equality here because
         handle-removal order is arbitrary; compare sorted. *)
      List.sort compare (Sim.Dlist.to_list l) = List.sort compare !model
      && Sim.Dlist.length l = List.length !model)

let suite =
  [
    Alcotest.test_case "push and iterate" `Quick test_push_iterate;
    Alcotest.test_case "remove middle" `Quick test_remove_middle;
    Alcotest.test_case "remove ends" `Quick test_remove_ends;
    Alcotest.test_case "remove only element" `Quick test_remove_only_element;
    Alcotest.test_case "double remove rejected" `Quick
      test_double_remove_rejected;
    Alcotest.test_case "foreign remove rejected" `Quick
      test_remove_foreign_rejected;
    Alcotest.test_case "pop_front" `Quick test_pop_front;
    Alcotest.test_case "cursor walks" `Quick test_cursor;
    Alcotest.test_case "relink a node" `Quick test_relink;
    Alcotest.test_case "fold/exists" `Quick test_fold_exists;
    QCheck_alcotest.to_alcotest prop_model_check;
  ]
