open Test_util
module Frame = Slab.Frame

let make_cache ?(latent_aware = false) ?(obj_size = 512) ?(cpus = 2) () =
  let env = make_env ~cpus ~total_pages:4096 () in
  let cache =
    Frame.create_cache env.fenv ~name:"frame-test" ~obj_size ~latent_aware ()
  in
  (env, cache)

let test_cache_geometry () =
  let _env, cache = make_cache () in
  Alcotest.(check int) "obj size" 512 cache.Frame.obj_size;
  Alcotest.(check bool) "order sane" true (cache.Frame.order <= 3);
  Alcotest.(check bool) "objs per slab" true (cache.Frame.objs_per_slab >= 16);
  Alcotest.(check int) "latent cap defaults to ocache cap"
    cache.Frame.ocache_cap cache.Frame.latent_cap;
  Alcotest.(check int) "no slabs yet" 0 (Frame.total_slabs cache)

let test_grow_creates_free_slab () =
  let env, cache = make_cache () in
  let c = cpu0 env in
  match Frame.grow cache c with
  | None -> Alcotest.fail "grow failed"
  | Some slab ->
      Alcotest.(check bool) "on free list" true
        (slab.Frame.on_list = Frame.L_free);
      Alcotest.(check int) "fully free" slab.Frame.capacity slab.Frame.free_n;
      Alcotest.(check int) "one slab" 1 (Frame.total_slabs cache);
      Alcotest.(check bool) "pages charged" true
        (Mem.Buddy.used_pages env.buddy > 0);
      Frame.check_invariants cache

let test_destroy_slab () =
  let env, cache = make_cache () in
  let c = cpu0 env in
  let slab = Option.get (Frame.grow cache c) in
  let used = Mem.Buddy.used_pages env.buddy in
  Frame.destroy_slab cache slab;
  Alcotest.(check int) "slab gone" 0 (Frame.total_slabs cache);
  Alcotest.(check bool) "pages returned" true
    (Mem.Buddy.used_pages env.buddy < used)

let test_refill_and_relocate () =
  let env, cache = make_cache () in
  let c = cpu0 env in
  ignore (Frame.grow cache c);
  let got =
    Frame.refill_from_node cache c ~want:5 ~select:Frame.select_slub
  in
  Alcotest.(check int) "got 5" 5 got;
  let pc = Frame.pcpu_for cache c in
  Alcotest.(check int) "in ocache" 5 pc.Frame.ocache_n;
  let node = Frame.node_for cache c in
  Alcotest.(check int) "slab now partial" 1 (Sim.Dlist.length node.Frame.partial);
  Alcotest.(check int) "free list empty" 0
    (Sim.Dlist.length node.Frame.free_slabs);
  Frame.check_invariants cache

let test_refill_exhausts_to_full () =
  let env, cache = make_cache () in
  let c = cpu0 env in
  ignore (Frame.grow cache c);
  let want = cache.Frame.objs_per_slab in
  let got = Frame.refill_from_node cache c ~want ~select:Frame.select_slub in
  Alcotest.(check int) "whole slab taken" want got;
  let node = Frame.node_for cache c in
  Alcotest.(check int) "slab on full list" 1 (Sim.Dlist.length node.Frame.full);
  Frame.check_invariants cache

let test_flush_returns_objects () =
  let env, cache = make_cache () in
  let c = cpu0 env in
  ignore (Frame.grow cache c);
  ignore (Frame.refill_from_node cache c ~want:8 ~select:Frame.select_slub);
  Frame.flush_to_node cache c ~count:8;
  let pc = Frame.pcpu_for cache c in
  Alcotest.(check int) "ocache empty" 0 pc.Frame.ocache_n;
  let node = Frame.node_for cache c in
  Alcotest.(check int) "slab free again" 1
    (Sim.Dlist.length node.Frame.free_slabs);
  Frame.check_invariants cache

(* The frame's object edges on the engine probe: one object's alloc,
   defer and pool entry arrive in order, carrying its oid and, once
   deferred, its token. *)
let test_object_edge_sequence () =
  let env, cache = make_cache () in
  let c = cpu0 env in
  ignore (Frame.grow cache c);
  ignore (Frame.refill_from_node cache c ~want:1 ~select:Frame.select_slub);
  let pc = Frame.pcpu_for cache c in
  let obj = Option.get (Frame.pop_ocache pc) in
  let seen = ref [] in
  Sim.Probe.subscribe (Sim.Engine.probe env.eng)
    [ Obj_alloc; Obj_free; Obj_defer; Obj_pool; Obj_page_release ]
    (fun edge ~cpu:_ ~a ~b -> seen := (edge, a, b) :: !seen);
  Frame.hand_to_user cache c obj;
  Frame.stamp_deferred cache obj ~cookie:7;
  Frame.push_ocache cache pc obj;
  let oid = obj.Frame.oid in
  Alcotest.(check bool) "alloc, defer (token), pool (token)" true
    (List.rev !seen
    = [ (Sim.Probe.Obj_alloc, oid, 0); (Obj_defer, oid, 7); (Obj_pool, oid, 7) ])

let take_one env cache =
  let c = cpu0 env in
  if Frame.total_slabs cache = 0 then ignore (Frame.grow cache c);
  ignore (Frame.refill_from_node cache c ~want:1 ~select:Frame.select_slub);
  let pc = Frame.pcpu_for cache c in
  let obj = Option.get (Frame.pop_ocache pc) in
  Frame.hand_to_user cache c obj;
  obj

let test_latent_cache_fifo_ripeness () =
  let env, cache = make_cache ~latent_aware:true () in
  let c = cpu0 env in
  let pc = Frame.pcpu_for cache c in
  let o1 = take_one env cache in
  let o2 = take_one env cache in
  Frame.stamp_deferred cache o1 ~cookie:1;
  Frame.obj_to_latent_cache cache pc o1;
  Frame.stamp_deferred cache o2 ~cookie:3;
  Frame.obj_to_latent_cache cache pc o2;
  Alcotest.(check bool) "nothing ripe at 0" true
    (Frame.latent_cache_pop_ripe cache pc ~completed:0 = None);
  (match Frame.latent_cache_pop_ripe cache pc ~completed:1 with
  | Some o -> Alcotest.(check int) "oldest first" o1.Frame.oid o.Frame.oid
  | None -> Alcotest.fail "expected ripe object");
  Alcotest.(check bool) "next not ripe at 1" true
    (Frame.latent_cache_pop_ripe cache pc ~completed:1 = None);
  Alcotest.(check int) "newest popped" o2.Frame.oid
    (Frame.latent_cache_pop_newest cache pc).Frame.oid

let test_latent_slab_harvest () =
  let env, cache = make_cache ~latent_aware:true () in
  let o1 = take_one env cache in
  let o2 = take_one env cache in
  let slab = o1.Frame.parent in
  Frame.stamp_deferred cache o1 ~cookie:1;
  Frame.obj_to_latent_slab cache o1;
  Frame.stamp_deferred cache o2 ~cookie:2;
  Frame.obj_to_latent_slab cache o2;
  Alcotest.(check int) "two latent" 2 slab.Frame.latent_n;
  Alcotest.(check int) "harvest at 1" 1 (Frame.slab_harvest_ripe slab ~completed:1);
  Alcotest.(check int) "one left" 1 slab.Frame.latent_n;
  Alcotest.(check int) "harvest rest" 1
    (Frame.slab_harvest_ripe slab ~completed:5);
  Alcotest.(check int) "none left" 0 slab.Frame.latent_n;
  ignore (Frame.relocate cache slab);
  Frame.check_invariants cache

let test_premove_full_to_partial () =
  (* Paper l.54: a full slab with a deferred object pre-moves to partial. *)
  let env, cache = make_cache ~latent_aware:true () in
  let c = cpu0 env in
  ignore (Frame.grow cache c);
  let want = cache.Frame.objs_per_slab in
  ignore (Frame.refill_from_node cache c ~want ~select:Frame.select_slub);
  let pc = Frame.pcpu_for cache c in
  let objs =
    List.init want (fun _ ->
        let o = Option.get (Frame.pop_ocache pc) in
        Frame.hand_to_user cache c o;
        o)
  in
  let slab = (List.hd objs).Frame.parent in
  Alcotest.(check bool) "slab full" true (slab.Frame.on_list = Frame.L_full);
  let victim = List.hd objs in
  Frame.stamp_deferred cache victim ~cookie:1;
  Frame.obj_to_latent_slab cache victim;
  Alcotest.(check bool) "pre-moved" true (Frame.relocate cache slab);
  Alcotest.(check bool) "now partial" true
    (slab.Frame.on_list = Frame.L_partial);
  (* clean up the rest for invariant purposes *)
  List.iter
    (fun o ->
      if o != victim then begin
        Frame.stamp_deferred cache o ~cookie:1;
        Frame.obj_to_latent_slab cache o
      end)
    objs;
  ignore (Frame.relocate cache slab);
  Frame.check_invariants cache

let test_premove_all_deferred_to_free () =
  (* Paper l.56: allocated = deferred -> free list, but not reclaimable
     until the grace period. *)
  let env, cache = make_cache ~latent_aware:true ~obj_size:4096 () in
  let c = cpu0 env in
  ignore (Frame.grow cache c);
  let want = cache.Frame.objs_per_slab in
  ignore (Frame.refill_from_node cache c ~want ~select:Frame.select_slub);
  let pc = Frame.pcpu_for cache c in
  let objs =
    List.init want (fun _ ->
        let o = Option.get (Frame.pop_ocache pc) in
        Frame.hand_to_user cache c o;
        o)
  in
  let slab = (List.hd objs).Frame.parent in
  List.iter
    (fun o ->
      Frame.stamp_deferred cache o ~cookie:1;
      Frame.obj_to_latent_slab cache o)
    objs;
  ignore (Frame.relocate cache slab);
  Alcotest.(check bool) "pre-moved to free list" true
    (slab.Frame.on_list = Frame.L_free);
  Alcotest.(check bool) "but not truly free" false (Frame.truly_free slab);
  (* Harvest at grace-period completion makes it reclaimable. *)
  ignore (Frame.slab_harvest_ripe slab ~completed:1);
  Alcotest.(check bool) "truly free after harvest" true (Frame.truly_free slab);
  Frame.check_invariants cache

let test_shrink_skips_pre_moved_slabs () =
  let env, cache = make_cache ~latent_aware:true ~obj_size:4096 () in
  let c = cpu0 env in
  (* Build Size_class.min_free_slabs + 2 slabs on the free list where one is
     pre-moved (latent) and the rest truly free. *)
  let n = Slab.Size_class.min_free_slabs + 2 in
  let slabs = List.init n (fun _ -> Option.get (Frame.grow cache c)) in
  (* Make the first slab all-latent: take its objects and defer them. *)
  let first = List.hd slabs in
  while first.Frame.free_n > 0 do
    (* hand + stamp to latent *)
    let o = Frame.take_free_obj first in
    Frame.hand_to_user cache c o;
    Frame.stamp_deferred cache o ~cookie:99;
    Frame.obj_to_latent_slab cache o
  done;
  ignore (Frame.relocate cache first);
  Alcotest.(check bool) "pre-moved slab on free list" true
    (first.Frame.on_list = Frame.L_free);
  let node = Frame.node_for cache c in
  let destroyed = Frame.shrink_node cache c node in
  Alcotest.(check bool) "destroyed some" true (destroyed > 0);
  Alcotest.(check bool) "pre-moved slab survived" true
    (first.Frame.on_list = Frame.L_free);
  Frame.check_invariants cache

let test_select_slub_prefers_partial () =
  let env, cache = make_cache () in
  let c = cpu0 env in
  ignore (Frame.grow cache c);
  ignore (Frame.grow cache c);
  (* Make the first slab partial. *)
  ignore (Frame.refill_from_node cache c ~want:3 ~select:Frame.select_slub);
  let node = Frame.node_for cache c in
  match Frame.select_slub node with
  | Some s ->
      Alcotest.(check bool) "picked the partial slab" true
        (s.Frame.on_list = Frame.L_partial)
  | None -> Alcotest.fail "selector found nothing"

let test_select_prudence_avoids_mostly_deferred () =
  let env, cache = make_cache ~latent_aware:true ~obj_size:4096 () in
  let c = cpu0 env in
  let node = Frame.node_for cache c in
  (* Slab A: 2 allocated, rest free. Slab B: like A, then its 2 allocated
     objects deferred (mostly-deferred). *)
  let setup deferred =
    let slab = Option.get (Frame.grow cache c) in
    let o1 = Frame.take_free_obj slab in
    let o2 = Frame.take_free_obj slab in
    Frame.hand_to_user cache c o1;
    Frame.hand_to_user cache c o2;
    ignore (Frame.relocate cache slab);
    if deferred then begin
      Frame.stamp_deferred cache o1 ~cookie:50;
      Frame.obj_to_latent_slab cache o1;
      Frame.stamp_deferred cache o2 ~cookie:50;
      Frame.obj_to_latent_slab cache o2;
      ignore (Frame.relocate cache slab)
    end;
    slab
  in
  let slab_a = setup false in
  let slab_b = setup true in
  Alcotest.(check bool) "both on partial/free" true
    (slab_a.Frame.on_list = Frame.L_partial
    && (slab_b.Frame.on_list = Frame.L_partial
       || slab_b.Frame.on_list = Frame.L_free));
  (match Frame.select_prudence ~scan_depth:10 node with
  | Some s ->
      Alcotest.(check int) "Fig. 5: picks slab A (no deferred)"
        slab_a.Frame.sid s.Frame.sid
  | None -> Alcotest.fail "selector found nothing");
  Frame.check_invariants cache

let test_fragmentation_formula () =
  let env, cache = make_cache ~obj_size:512 () in
  let c = cpu0 env in
  Alcotest.(check bool) "nan when no live objects" true
    (Float.is_nan (Frame.fragmentation cache));
  let _o = take_one env cache in
  let expect =
    float_of_int (Frame.total_slabs cache * Frame.slab_bytes cache)
    /. float_of_int (1 * 512)
  in
  Alcotest.(check (float 0.001)) "f_t" expect (Frame.fragmentation cache);
  ignore c

let test_color_cycles () =
  let env, cache = make_cache () in
  let c = cpu0 env in
  let s1 = Option.get (Frame.grow cache c) in
  let s2 = Option.get (Frame.grow cache c) in
  Alcotest.(check bool) "colors differ across consecutive slabs" true
    (s1.Frame.color <> s2.Frame.color)

(* Object identity decides the first-touch cost in [hand_to_user], so the
   order objects are handed out in is behaviour, not an implementation
   detail. The sequences below were recorded from the list-based frame
   (object-cache and freelist conses) that the array stacks replaced. *)
let order_env kind =
  let env = make_env ~cpus:2 ~total_pages:4096 () in
  let backend =
    match kind with
    | `Slub -> Slab.Slub.backend (Slab.Slub.create env.fenv env.rcu)
    | `Prudence -> Prudence.backend (Prudence.create env.fenv env.rcu)
  in
  let cache = backend.Slab.Backend.create_cache ~name:"order" ~obj_size:512 in
  let c = cpu0 env in
  let alloc () = Option.get (backend.Slab.Backend.alloc cache c) in
  let free o = backend.Slab.Backend.free cache c o in
  (cache, c, alloc, free)

let oids = List.map (fun (o : Frame.objekt) -> o.Frame.oid)

let test_order_lifo kind () =
  let _, _, alloc, free = order_env kind in
  let a = alloc () in
  let b = alloc () in
  let c = alloc () in
  List.iter free [ a; b; c ];
  let again = List.init 3 (fun _ -> alloc ()) in
  Alcotest.(check (list int)) "free a, b, c; alloc gives c, b, a"
    (oids [ c; b; a ]) (oids again)

(* A refill moves a batch of 15 off the slab's freelist in oid order, so
   the object cache pops each batch in reverse. *)
let fresh_order =
  [ 14; 13; 12; 11; 10; 9; 8; 7; 6; 5; 4; 3; 2; 1; 0; 15; 30; 29; 28; 27;
    26; 25; 24; 23; 22; 21; 20; 19; 18; 17; 16; 31; 46; 45; 44; 43; 42; 41;
    40; 39 ]

let test_order_fresh kind () =
  let _, _, alloc, _ = order_env kind in
  Alcotest.(check (list int)) "first 40 allocations" fresh_order
    (oids (List.init 40 (fun _ -> alloc ())))

let flush_refill_order =
  [ 5; 4; 3; 2; 1; 0; 15; 14; 13; 12; 11; 10; 9; 8; 7; 45; 44; 43; 42; 41;
    40; 39; 32; 33; 34; 35; 36; 37; 38; 6; 27; 26; 25; 24; 23; 22; 21; 20;
    19; 18 ]

let test_order_flush_refill kind () =
  let cache, c, alloc, free = order_env kind in
  List.iter free (List.init 40 (fun _ -> alloc ()));
  let pc = Frame.pcpu_for cache c in
  Frame.flush_to_node cache c ~count:pc.Frame.ocache_n;
  Alcotest.(check int) "object cache flushed" 0 pc.Frame.ocache_n;
  Alcotest.(check (list int)) "40 allocations after free + flush"
    flush_refill_order
    (oids (List.init 40 (fun _ -> alloc ())))

let test_fresh_slab_freelist_order () =
  let env, cache = make_cache () in
  let slab = Option.get (Frame.grow cache (cpu0 env)) in
  let n = slab.Frame.capacity in
  Alcotest.(check (list int)) "List.init order" (List.init n Fun.id)
    (oids (List.init n (fun _ -> Frame.take_free_obj slab)))

let suite =
  [
    Alcotest.test_case "cache geometry" `Quick test_cache_geometry;
    Alcotest.test_case "grow creates free slab" `Quick
      test_grow_creates_free_slab;
    Alcotest.test_case "destroy slab" `Quick test_destroy_slab;
    Alcotest.test_case "refill relocates" `Quick test_refill_and_relocate;
    Alcotest.test_case "refill to full" `Quick test_refill_exhausts_to_full;
    Alcotest.test_case "flush returns objects" `Quick test_flush_returns_objects;
    Alcotest.test_case "object edge sequence" `Quick test_object_edge_sequence;
    Alcotest.test_case "latent cache fifo/ripeness" `Quick
      test_latent_cache_fifo_ripeness;
    Alcotest.test_case "latent slab harvest" `Quick test_latent_slab_harvest;
    Alcotest.test_case "pre-move full -> partial" `Quick
      test_premove_full_to_partial;
    Alcotest.test_case "pre-move all-deferred -> free" `Quick
      test_premove_all_deferred_to_free;
    Alcotest.test_case "shrink skips pre-moved slabs" `Quick
      test_shrink_skips_pre_moved_slabs;
    Alcotest.test_case "select_slub prefers partial" `Quick
      test_select_slub_prefers_partial;
    Alcotest.test_case "select_prudence avoids deferred (Fig. 5)" `Quick
      test_select_prudence_avoids_mostly_deferred;
    Alcotest.test_case "fragmentation formula" `Quick test_fragmentation_formula;
    Alcotest.test_case "slab colouring cycles" `Quick test_color_cycles;
    Alcotest.test_case "fresh slab freelist in oid order" `Quick
      test_fresh_slab_freelist_order;
  ]
  @ List.concat_map
      (fun (name, kind) ->
        [
          Alcotest.test_case (name ^ ": free a,b,c -> alloc c,b,a") `Quick
            (test_order_lifo kind);
          Alcotest.test_case (name ^ ": fresh hand-out order") `Quick
            (test_order_fresh kind);
          Alcotest.test_case (name ^ ": flush-then-refill order") `Quick
            (test_order_flush_refill kind);
        ])
      [ ("slub", `Slub); ("prudence", `Prudence) ]
