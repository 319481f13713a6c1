let test_fifo () =
  let d = Sim.Deque.create () in
  Sim.Deque.push_back d 1;
  Sim.Deque.push_back d 2;
  Sim.Deque.push_back d 3;
  Alcotest.(check (option int)) "front" (Some 1) (Sim.Deque.pop_front d);
  Alcotest.(check (option int)) "front" (Some 2) (Sim.Deque.pop_front d);
  Alcotest.(check (option int)) "front" (Some 3) (Sim.Deque.pop_front d);
  Alcotest.(check (option int)) "empty" None (Sim.Deque.pop_front d)

let test_both_ends () =
  let d = Sim.Deque.create () in
  Sim.Deque.push_back d 2;
  Sim.Deque.push_front d 1;
  Sim.Deque.push_back d 3;
  Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (Sim.Deque.to_list d);
  Alcotest.(check (option int)) "pop_back" (Some 3) (Sim.Deque.pop_back d);
  Alcotest.(check (option int)) "pop_front" (Some 1) (Sim.Deque.pop_front d);
  Alcotest.(check int) "length" 1 (Sim.Deque.length d)

let test_peek () =
  let d = Sim.Deque.create () in
  Alcotest.(check (option int)) "peek empty" None (Sim.Deque.peek_front d);
  Sim.Deque.push_back d 5;
  Sim.Deque.push_back d 6;
  Alcotest.(check (option int)) "peek front" (Some 5) (Sim.Deque.peek_front d);
  Alcotest.(check (option int)) "peek back" (Some 6) (Sim.Deque.peek_back d);
  Alcotest.(check int) "peek does not remove" 2 (Sim.Deque.length d)

let test_pop_back_after_front_pushes () =
  let d = Sim.Deque.create () in
  Sim.Deque.push_front d 3;
  Sim.Deque.push_front d 2;
  Sim.Deque.push_front d 1;
  Alcotest.(check (option int)) "back is 3" (Some 3) (Sim.Deque.pop_back d)

let test_clear () =
  let d = Sim.Deque.create () in
  Sim.Deque.push_back d 1;
  Sim.Deque.clear d;
  Alcotest.(check bool) "cleared" true (Sim.Deque.is_empty d)

let prop_deque_model =
  QCheck.Test.make ~name:"deque matches a list model" ~count:300
    QCheck.(list (pair (int_bound 3) small_int))
    (fun ops ->
      let d = Sim.Deque.create () in
      let model = ref [] in
      List.for_all
        (fun (op, v) ->
          match op with
          | 0 ->
              Sim.Deque.push_back d v;
              model := !model @ [ v ];
              true
          | 1 ->
              Sim.Deque.push_front d v;
              model := v :: !model;
              true
          | 2 -> (
              let expect =
                match !model with [] -> None | x :: rest -> model := rest; Some x
              in
              Sim.Deque.pop_front d = expect)
          | _ -> (
              let expect =
                match List.rev !model with
                | [] -> None
                | x :: rest ->
                    model := List.rev rest;
                    Some x
              in
              Sim.Deque.pop_back d = expect))
        ops
      && Sim.Deque.to_list d = !model)

(* Long, push-heavy runs: the ring starts empty, grows several times and
   wraps at both ends (push_front walks [head] backwards past slot 0). The
   raising pops run only when the model says the deque is non-empty. *)
let prop_ring_model =
  QCheck.Test.make ~name:"ring deque matches a list model over long runs"
    ~count:200
    QCheck.(list_of_size Gen.(64 -- 256) (pair (int_bound 5) small_int))
    (fun ops ->
      let d = Sim.Deque.create () in
      let model = ref [] in
      List.for_all
        (fun (op, v) ->
          (match op with
          | 0 | 1 ->
              Sim.Deque.push_back d v;
              model := !model @ [ v ]
          | 2 | 3 ->
              Sim.Deque.push_front d v;
              model := v :: !model
          | 4 -> (
              match !model with
              | [] -> ()
              | x :: rest ->
                  model := rest;
                  assert (Sim.Deque.pop_front_exn d = x))
          | _ -> (
              match List.rev !model with
              | [] -> ()
              | x :: rest ->
                  model := List.rev rest;
                  assert (Sim.Deque.pop_back_exn d = x)));
          Sim.Deque.length d = List.length !model
          && Sim.Deque.peek_front d = List.nth_opt !model 0
          && Sim.Deque.peek_back d = List.nth_opt (List.rev !model) 0)
        ops
      && Sim.Deque.to_list d = !model)

let test_exn_on_empty () =
  let d = Sim.Deque.create () in
  Alcotest.check_raises "pop_front_exn"
    (Invalid_argument "Deque.pop_front_exn: empty") (fun () ->
      ignore (Sim.Deque.pop_front_exn d));
  Alcotest.check_raises "pop_back_exn"
    (Invalid_argument "Deque.pop_back_exn: empty") (fun () ->
      ignore (Sim.Deque.pop_back_exn d))

let suite =
  [
    Alcotest.test_case "fifo" `Quick test_fifo;
    Alcotest.test_case "both ends" `Quick test_both_ends;
    Alcotest.test_case "peek" `Quick test_peek;
    Alcotest.test_case "pop_back after front pushes" `Quick
      test_pop_back_after_front_pushes;
    Alcotest.test_case "clear" `Quick test_clear;
    Alcotest.test_case "raising pops on empty" `Quick test_exn_on_empty;
    QCheck_alcotest.to_alcotest prop_deque_model;
    QCheck_alcotest.to_alcotest prop_ring_model;
  ]
