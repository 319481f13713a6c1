(** Intrusive doubly-linked list with O(1) removal by node handle.

    The slab allocators keep each slab on exactly one node-level list
    (full / partial / free) and move slabs between lists constantly. A
    node is made once per value and re-linked on every move, so a move
    writes a few pointers and allocates nothing. Walks use the node
    cursor ({!first} / {!next}, {!last} / {!prev}), which allocates
    nothing either. *)

type 'a t
type 'a node

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

val node : 'a -> 'a node
(** A fresh node carrying the value, on no list. *)

val none : 'a node
(** The end-of-list cursor; also a placeholder for a node not yet made.
    It carries no value and cannot be linked. *)

val is_none : 'a node -> bool

val value : 'a node -> 'a
(** Raises [Invalid_argument] on {!none}. *)

val linked : 'a node -> bool
(** Whether the node is on some list. *)

val link_front : 'a t -> 'a node -> unit
val link_back : 'a t -> 'a node -> unit
(** Put a node that is on no list at one end of [l]. Raises
    [Invalid_argument] if it is already on a list (or is {!none}). *)

val push_front : 'a t -> 'a -> 'a node
val push_back : 'a t -> 'a -> 'a node
(** [node] then [link_*]. *)

val remove : 'a t -> 'a node -> unit
(** [remove l n] unlinks [n], which may then be linked again. Raises
    [Invalid_argument] if [n] is not currently on [l]. *)

val first : 'a t -> 'a node
val last : 'a t -> 'a node

val next : 'a node -> 'a node
val prev : 'a node -> 'a node
(** The neighbour towards the back / front; {!none} past the end. Read it
    before unlinking the node when a walk removes as it goes. *)

val peek_front : 'a t -> 'a option
val pop_front : 'a t -> 'a option

val iter : ('a -> unit) -> 'a t -> unit
(** Front to back. *)

val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val exists : ('a -> bool) -> 'a t -> bool
val to_list : 'a t -> 'a list
