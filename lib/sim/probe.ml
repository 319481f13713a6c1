type edge =
  | Obj_alloc | Obj_free | Obj_defer | Obj_pool | Obj_page_release
  | Reader_hold | Gp_request | Gp_start | Gp_qs | Smr_request
  | Epoch_scan | Epoch_blocked | Batch_seal | Batch_unref

type handler = edge -> cpu:int -> a:int -> b:int -> unit

(* One handler array per edge, indexed by declaration order; [index]
   compiles to the identity, inlined so [emit] stays a leaf. *)
type t = handler array array

let[@inline] index = function
  | Obj_alloc -> 0 | Obj_free -> 1 | Obj_defer -> 2 | Obj_pool -> 3
  | Obj_page_release -> 4 | Reader_hold -> 5 | Gp_request -> 6
  | Gp_start -> 7 | Gp_qs -> 8 | Smr_request -> 9 | Epoch_scan -> 10
  | Epoch_blocked -> 11 | Batch_seal -> 12 | Batch_unref -> 13

let create () = Array.make 14 [||]

let subscribe t edges h =
  List.iter (fun e -> t.(index e) <- Array.append t.(index e) [| h |]) edges

let active t e = Array.length t.(index e) > 0

let dispatch hs e ~cpu ~a ~b =
  for i = 0 to Array.length hs - 1 do
    (Array.unsafe_get hs i) e ~cpu ~a ~b
  done

(* An unwatched edge costs a load and a length test; the loop lives in
   [dispatch]. *)
let emit t e ~cpu ~a ~b =
  let hs = Array.unsafe_get t (index e) in
  if Array.length hs > 0 then dispatch hs e ~cpu ~a ~b
