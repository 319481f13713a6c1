(* Size-class traffic through the Backend record, as the workloads issue
   it: one kmalloc-NN cache per class, objects freed through their own
   parent cache. *)

open Test_util
module Frame = Slab.Frame
module Backend = Slab.Backend
module Sc = Slab.Size_class

let class_cache (b : Backend.t) ~size =
  let cls = Sc.kmalloc_class size in
  b.Backend.create_cache ~name:(Sc.kmalloc_cache_name cls) ~obj_size:cls

let alloc (b : Backend.t) cpu ~size =
  Option.get (b.Backend.alloc (class_cache b ~size) cpu)

let cache_of (obj : Frame.objekt) = obj.Frame.parent.Frame.cache
let free (b : Backend.t) cpu obj = b.Backend.free (cache_of obj) cpu obj

let check_no_live label (b : Backend.t) =
  b.Backend.iter_caches (fun cache ->
      Frame.check_invariants cache;
      Alcotest.(check int)
        (label ^ cache.Frame.name ^ " live")
        0 (Frame.live_objects cache))

let make_slub () =
  let env = make_env ~cpus:2 () in
  (env, Slab.Slub.backend (Slab.Slub.create env.fenv env.rcu))

let test_routes_to_class_cache () =
  let env, b = make_slub () in
  let obj = alloc b (cpu0 env) ~size:50 in
  Alcotest.(check string) "rounded to kmalloc-64" "kmalloc-64"
    (cache_of obj).Frame.name;
  Alcotest.(check int) "class object size" 64 (cache_of obj).Frame.obj_size

let test_class_caches_shared () =
  let _env, b = make_slub () in
  let c1 = class_cache b ~size:100 in
  Alcotest.(check bool) "same class cache" true (c1 == class_cache b ~size:128);
  Alcotest.(check bool) "next class differs" true (c1 != class_cache b ~size:129)

let test_free_finds_owner_cache () =
  let env, b = make_slub () in
  let c = cpu0 env in
  let small = alloc b c ~size:8 in
  free b c (alloc b c ~size:4096);
  free b c small;
  check_no_live "" b

let test_deferred_on_slub () =
  let env, b = make_slub () in
  let obj = alloc b (cpu0 env) ~size:512 in
  b.Backend.free_deferred (cache_of obj) (cpu0 env) obj;
  Alcotest.(check int) "one rcu callback" 1 (Rcu.pending_callbacks env.rcu);
  Sim.Engine.run ~until:(Sim.Clock.ms 30) env.eng;
  Alcotest.(check int) "reclaimed" 0 (Rcu.pending_callbacks env.rcu)

let test_deferred_on_prudence () =
  let env = make_env ~cpus:2 () in
  let b = Prudence.backend (Prudence.create env.fenv env.rcu) in
  let obj = alloc b (cpu0 env) ~size:256 in
  b.Backend.free_deferred (cache_of obj) (cpu0 env) obj;
  Alcotest.(check bool) "went latent, not to rcu" true
    (obj.Frame.ostate = Frame.In_latent_cache
    && Rcu.pending_callbacks env.rcu = 0)

let test_every_backend_every_class () =
  List.iter
    (fun kind ->
      let module E = Workloads.Env in
      let env = E.build { E.default_config with E.kind; cpus = 2 } in
      let b = env.E.backend and c = E.cpu env 0 in
      Array.map (fun size -> alloc b c ~size) Sc.kmalloc_sizes
      |> Array.iter (free b c);
      check_no_live (E.kind_label kind ^ " ") b)
    Workloads.Env.all_kinds

let suite =
  [
    Alcotest.test_case "routes to class cache" `Quick test_routes_to_class_cache;
    Alcotest.test_case "class caches shared" `Quick test_class_caches_shared;
    Alcotest.test_case "free finds owner cache" `Quick
      test_free_finds_owner_cache;
    Alcotest.test_case "deferred on slub goes to rcu" `Quick
      test_deferred_on_slub;
    Alcotest.test_case "deferred on prudence goes latent" `Quick
      test_deferred_on_prudence;
    Alcotest.test_case "every backend serves every class" `Quick
      test_every_backend_every_class;
  ]
