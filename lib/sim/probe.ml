type edge =
  | Obj_alloc | Obj_free | Obj_defer | Obj_pool | Obj_page_release
  | Reader_hold | Gp_request | Gp_start | Gp_qs | Smr_request
  | Epoch_scan | Epoch_blocked | Batch_seal | Batch_unref
  | Alloc_hit | Alloc_miss | Refill | Flush | Grow | Shrink | Defer_free
  | Latent_merge | Premove | Preflush | Gp_end | Cb_enqueue | Cb_invoke
  | Lock_acquire | Lock_contended | Idle_start | Idle_end | Ctx_switch
  | Oom | Rcu_stall | Fault_inject | Grow_retry | Emergency_flush
  | Alloc_cost

type handler = edge -> cpu:int -> a:int -> b:int -> unit

let all =
  [
    Obj_alloc; Obj_free; Obj_defer; Obj_pool; Obj_page_release; Reader_hold;
    Gp_request; Gp_start; Gp_qs; Smr_request; Epoch_scan; Epoch_blocked;
    Batch_seal; Batch_unref; Alloc_hit; Alloc_miss; Refill; Flush; Grow;
    Shrink; Defer_free; Latent_merge; Premove; Preflush; Gp_end; Cb_enqueue;
    Cb_invoke; Lock_acquire; Lock_contended; Idle_start; Idle_end;
    Ctx_switch; Oom; Rcu_stall; Fault_inject; Grow_retry; Emergency_flush;
    Alloc_cost;
  ]

(* One handler array per edge, indexed by declaration order. *)
type t = {
  handlers : handler array array;
  ids : (string, int) Hashtbl.t;
  mutable labels : string array;  (* slots [0, n_labels); 0 is "" *)
  mutable n_labels : int;
}

let[@inline] index = function
  | Obj_alloc -> 0 | Obj_free -> 1 | Obj_defer -> 2 | Obj_pool -> 3
  | Obj_page_release -> 4 | Reader_hold -> 5 | Gp_request -> 6
  | Gp_start -> 7 | Gp_qs -> 8 | Smr_request -> 9 | Epoch_scan -> 10
  | Epoch_blocked -> 11 | Batch_seal -> 12 | Batch_unref -> 13
  | Alloc_hit -> 14 | Alloc_miss -> 15 | Refill -> 16 | Flush -> 17
  | Grow -> 18 | Shrink -> 19 | Defer_free -> 20 | Latent_merge -> 21
  | Premove -> 22 | Preflush -> 23 | Gp_end -> 24 | Cb_enqueue -> 25
  | Cb_invoke -> 26 | Lock_acquire -> 27 | Lock_contended -> 28
  | Idle_start -> 29 | Idle_end -> 30 | Ctx_switch -> 31 | Oom -> 32
  | Rcu_stall -> 33 | Fault_inject -> 34 | Grow_retry -> 35
  | Emergency_flush -> 36 | Alloc_cost -> 37

let create () =
  {
    handlers = Array.make (List.length all) [||];
    ids = Hashtbl.create 16;
    labels = [| "" |];
    n_labels = 1;
  }

let subscribe t edges h =
  List.iter
    (fun e -> t.handlers.(index e) <- Array.append t.handlers.(index e) [| h |])
    edges

let active t e = Array.length t.handlers.(index e) > 0

let dispatch hs e ~cpu ~a ~b =
  for i = 0 to Array.length hs - 1 do
    (Array.unsafe_get hs i) e ~cpu ~a ~b
  done

(* An unwatched edge costs a load and a length test; the loop lives in
   [dispatch]. *)
let emit t e ~cpu ~a ~b =
  let hs = Array.unsafe_get t.handlers (index e) in
  if Array.length hs > 0 then dispatch hs e ~cpu ~a ~b

let intern t s =
  if s = "" then 0
  else
    match Hashtbl.find_opt t.ids s with
    | Some id -> id
    | None ->
        let id = t.n_labels in
        if id = Array.length t.labels then begin
          let grown = Array.make (2 * id) "" in
          Array.blit t.labels 0 grown 0 id;
          t.labels <- grown
        end;
        t.labels.(id) <- s;
        t.n_labels <- id + 1;
        Hashtbl.add t.ids s id;
        id

let label t id = if id > 0 && id < t.n_labels then t.labels.(id) else ""
