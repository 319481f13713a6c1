open Test_util

let test_hold_release () =
  let env = make_env ~cpus:2 () in
  let readers = Rcu.Readers.create env.rcu in
  let c = cpu0 env in
  Rcu.Readers.enter readers c;
  Rcu.Readers.hold readers c ~oid:42;
  Alcotest.(check int) "refcount" 1 (Rcu.Readers.refcount readers ~oid:42);
  Rcu.Readers.release readers c ~oid:42;
  Alcotest.(check int) "released" 0 (Rcu.Readers.refcount readers ~oid:42);
  Rcu.Readers.exit readers c;
  Alcotest.(check (list string)) "no violations" []
    (Rcu.Readers.violations readers)

let test_exit_drops_refs () =
  let env = make_env ~cpus:2 () in
  let readers = Rcu.Readers.create env.rcu in
  let c = cpu0 env in
  Rcu.Readers.enter readers c;
  Rcu.Readers.hold readers c ~oid:1;
  Rcu.Readers.hold readers c ~oid:1;
  Rcu.Readers.hold readers c ~oid:2;
  Rcu.Readers.exit readers c;
  Alcotest.(check int) "oid 1 dropped" 0 (Rcu.Readers.refcount readers ~oid:1);
  Alcotest.(check int) "oid 2 dropped" 0 (Rcu.Readers.refcount readers ~oid:2)

let test_hold_outside_section_flagged () =
  let env = make_env ~cpus:2 () in
  let readers = Rcu.Readers.create env.rcu in
  Rcu.Readers.hold readers (cpu0 env) ~oid:7;
  Alcotest.(check int) "violation recorded" 1
    (List.length (Rcu.Readers.violations readers))

let test_release_unheld_flagged () =
  let env = make_env ~cpus:2 () in
  let readers = Rcu.Readers.create env.rcu in
  let c = cpu0 env in
  Rcu.Readers.enter readers c;
  Rcu.Readers.release readers c ~oid:9;
  Rcu.Readers.exit readers c;
  Alcotest.(check int) "violation recorded" 1
    (List.length (Rcu.Readers.violations readers))

let test_check_reusable () =
  let env = make_env ~cpus:2 () in
  let readers = Rcu.Readers.create env.rcu in
  let c = cpu0 env in
  Rcu.Readers.check_reusable readers ~oid:5 ~where:"alloc";
  Alcotest.(check (list string)) "clean when unreferenced" []
    (Rcu.Readers.violations readers);
  Rcu.Readers.enter readers c;
  Rcu.Readers.hold readers c ~oid:5;
  Rcu.Readers.check_reusable readers ~oid:5 ~where:"alloc";
  Alcotest.(check int) "premature reuse flagged" 1
    (List.length (Rcu.Readers.violations readers));
  Rcu.Readers.exit readers c

let test_sections_block_gp () =
  let env = make_env ~cpus:2 () in
  let readers = Rcu.Readers.create env.rcu in
  let c = cpu0 env in
  Rcu.Readers.enter readers c;
  Rcu.request_gp env.rcu;
  Sim.Engine.run ~until:Sim.(Clock.ms 10) env.eng;
  Alcotest.(check int) "section blocks gp" 0 (Rcu.completed env.rcu);
  Rcu.Readers.exit readers c;
  Sim.Engine.run ~until:Sim.(Clock.ms 20) env.eng;
  Alcotest.(check bool) "gp proceeds" true (Rcu.completed env.rcu >= 1)

let test_with_section_exception_safe () =
  let env = make_env ~cpus:2 () in
  let readers = Rcu.Readers.create env.rcu in
  let c = cpu0 env in
  (try
     Rcu.Readers.with_section readers c (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check int) "nesting restored" 0 c.Sim.Machine.rcu_nesting

(* Model test: the oid-indexed refcounts and per-CPU held stacks against
   a list-based reference that restates the tracking rules directly. *)
type op =
  | Enter of int
  | Exit of int
  | Hold of int * int
  | Release of int * int
  | Check of int

type model = {
  nesting : int array;
  held : int list array; (* newest first *)
  mutable refs : (int * int) list;
  mutable log : string list; (* reversed *)
  mutable dropped : int;
}

let model_refcount m oid = try List.assoc oid m.refs with Not_found -> 0

let model_add m oid d =
  let n = model_refcount m oid + d in
  m.refs <- (oid, n) :: List.remove_assoc oid m.refs

let model_violation m msg =
  if List.length m.log < Rcu.Readers.max_logged_violations then
    m.log <- msg :: m.log
  else m.dropped <- m.dropped + 1

let rec remove_first x = function
  | [] -> None
  | y :: rest when y = x -> Some rest
  | y :: rest -> Option.map (fun r -> y :: r) (remove_first x rest)

let model_step m = function
  | Enter c -> m.nesting.(c) <- m.nesting.(c) + 1
  | Exit c ->
      List.iter (fun oid -> model_add m oid (-1)) m.held.(c);
      m.held.(c) <- [];
      m.nesting.(c) <- m.nesting.(c) - 1
  | Hold (c, oid) ->
      if m.nesting.(c) = 0 then
        model_violation m
          (Printf.sprintf "cpu%d held a reference to object %d outside a \
                           read-side critical section" c oid)
      else begin
        model_add m oid 1;
        m.held.(c) <- oid :: m.held.(c)
      end
  | Release (c, oid) -> (
      match remove_first oid m.held.(c) with
      | Some rest ->
          m.held.(c) <- rest;
          model_add m oid (-1)
      | None ->
          model_violation m
            (Printf.sprintf "cpu%d released object %d it did not hold" c oid))
  | Check oid ->
      let n = model_refcount m oid in
      if n > 0 then
        model_violation m
          (Printf.sprintf
             "model: object %d reused while %d reader(s) still reference it"
             oid n)

let model_cpus = 3

let op_oid = function
  | Hold (_, o) | Release (_, o) | Check o -> Some o
  | Enter _ | Exit _ -> None

let op_gen =
  QCheck.Gen.(
    let cpu = int_bound (model_cpus - 1) in
    (* Small ids collide; the others land past the initial capacity. *)
    let oid =
      frequency
        [ (6, int_bound 7); (2, int_range 500 700); (1, int_bound 50_000) ]
    in
    frequency
      [
        (3, map (fun c -> Enter c) cpu);
        (2, map (fun c -> Exit c) cpu);
        (5, map2 (fun c o -> Hold (c, o)) cpu oid);
        (3, map2 (fun c o -> Release (c, o)) cpu oid);
        (2, map (fun o -> Check o) oid);
      ])

let print_op = function
  | Enter c -> Printf.sprintf "E%d" c
  | Exit c -> Printf.sprintf "X%d" c
  | Hold (c, o) -> Printf.sprintf "H%d:%d" c o
  | Release (c, o) -> Printf.sprintf "R%d:%d" c o
  | Check o -> Printf.sprintf "C%d" o

let prop_matches_model =
  QCheck.Test.make ~name:"readers = list model" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat " " (List.map print_op ops))
       QCheck.Gen.(list_size (0 -- 300) op_gen))
    (fun ops ->
      let env = make_env ~cpus:model_cpus ~total_pages:1024 () in
      let r = Rcu.Readers.create env.rcu in
      let m =
        {
          nesting = Array.make model_cpus 0;
          held = Array.make model_cpus [];
          refs = [];
          log = [];
          dropped = 0;
        }
      in
      let touched = Hashtbl.create 64 in
      List.iter
        (fun op ->
          (* An exit without an open section is a caller bug the real
             module asserts on; the generator's stray ones are skipped. *)
          let skip = match op with Exit c -> m.nesting.(c) = 0 | _ -> false in
          if not skip then begin
            model_step m op;
            (match op with
            | Enter c -> Rcu.Readers.enter r (cpu env c)
            | Exit c -> Rcu.Readers.exit r (cpu env c)
            | Hold (c, oid) -> Rcu.Readers.hold r (cpu env c) ~oid
            | Release (c, oid) -> Rcu.Readers.release r (cpu env c) ~oid
            | Check oid -> Rcu.Readers.check_reusable r ~oid ~where:"model");
            match op_oid op with
            | Some oid ->
                Hashtbl.replace touched oid ();
                if Rcu.Readers.refcount r ~oid <> model_refcount m oid then
                  QCheck.Test.fail_reportf "refcount %d: %d, model %d" oid
                    (Rcu.Readers.refcount r ~oid) (model_refcount m oid)
            | None -> ()
          end)
        ops;
      Hashtbl.iter
        (fun oid () ->
          if Rcu.Readers.refcount r ~oid <> model_refcount m oid then
            QCheck.Test.fail_reportf "final refcount %d: %d, model %d" oid
              (Rcu.Readers.refcount r ~oid) (model_refcount m oid))
        touched;
      Rcu.Readers.violations r = List.rev m.log
      && Rcu.Readers.dropped_violations r = m.dropped)

let suite =
  [
    Alcotest.test_case "hold/release" `Quick test_hold_release;
    Alcotest.test_case "exit drops refs" `Quick test_exit_drops_refs;
    Alcotest.test_case "hold outside section flagged" `Quick
      test_hold_outside_section_flagged;
    Alcotest.test_case "release unheld flagged" `Quick
      test_release_unheld_flagged;
    Alcotest.test_case "check_reusable" `Quick test_check_reusable;
    Alcotest.test_case "sections block gp" `Quick test_sections_block_gp;
    Alcotest.test_case "with_section exception safe" `Quick
      test_with_section_exception_safe;
    QCheck_alcotest.to_alcotest prop_matches_model;
  ]
