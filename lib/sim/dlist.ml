(* Links are cells, not options: a neighbour is either [Nil] or the node
   itself, so linking and unlinking write pointers and box nothing. *)
type 'a cell =
  | Nil
  | Node of {
      v : 'a;
      mutable prev : 'a cell;
      mutable next : 'a cell;
      mutable owner : int;  (* [id] of the list holding the node; 0: none *)
    }

type 'a node = 'a cell

type 'a t = {
  id : int;
  mutable head : 'a cell;
  mutable tail : 'a cell;
  mutable size : int;
}

(* List identities only back the ownership check in [remove]. *)
let next_id = Atomic.make 1

let create () =
  { id = Atomic.fetch_and_add next_id 1; head = Nil; tail = Nil; size = 0 }

let length l = l.size
let is_empty l = l.size = 0
let node v = Node { v; prev = Nil; next = Nil; owner = 0 }
let none = Nil
let is_none = function Nil -> true | Node _ -> false
let value = function Node n -> n.v | Nil -> invalid_arg "Dlist.value: none"
let linked = function Node n -> n.owner <> 0 | Nil -> false

let link_front l c =
  match c with
  | Node n when n.owner = 0 ->
      n.owner <- l.id;
      n.next <- l.head;
      (match l.head with Node h -> h.prev <- c | Nil -> l.tail <- c);
      l.head <- c;
      l.size <- l.size + 1
  | _ -> invalid_arg "Dlist.link_front: node already linked"

let link_back l c =
  match c with
  | Node n when n.owner = 0 ->
      n.owner <- l.id;
      n.prev <- l.tail;
      (match l.tail with Node t -> t.next <- c | Nil -> l.head <- c);
      l.tail <- c;
      l.size <- l.size + 1
  | _ -> invalid_arg "Dlist.link_back: node already linked"

let push_front l v =
  let c = node v in
  link_front l c;
  c

let push_back l v =
  let c = node v in
  link_back l c;
  c

let remove l c =
  match c with
  | Node n when n.owner = l.id ->
      (match n.prev with Node p -> p.next <- n.next | Nil -> l.head <- n.next);
      (match n.next with Node s -> s.prev <- n.prev | Nil -> l.tail <- n.prev);
      n.prev <- Nil;
      n.next <- Nil;
      n.owner <- 0;
      l.size <- l.size - 1
  | _ -> invalid_arg "Dlist.remove: node not on this list"

let first l = l.head
let last l = l.tail
let next = function Node n -> n.next | Nil -> Nil
let prev = function Node n -> n.prev | Nil -> Nil

let peek_front l = match l.head with Nil -> None | Node n -> Some n.v

let pop_front l =
  match l.head with
  | Nil -> None
  | Node n as c ->
      remove l c;
      Some n.v

let iter f l =
  let rec go = function
    | Nil -> ()
    | Node n ->
        let next = n.next in
        f n.v;
        go next
  in
  go l.head

let fold f acc l =
  let acc = ref acc in
  iter (fun v -> acc := f !acc v) l;
  !acc

let exists p l =
  let rec go = function Nil -> false | Node n -> p n.v || go n.next in
  go l.head

let to_list l = List.rev (fold (fun acc v -> v :: acc) [] l)
