(** Safe-memory-reclamation backend interface.

    Abstracts the defer -> grace-detection -> harvest cycle over the
    detection scheme. Tokens are monotone ints compatible with the
    {!Latq} cookie contract: [defer] issues the token an object must
    wait out, [ripe_upto] is the monotone frontier below which tokens
    are safe to recycle. *)

type t = {
  scheme : string;
  snapshot : unit -> int;
  defer : cpu:int -> int;
  ripe_upto : unit -> int;
  advance : unit -> unit;
  request : unit -> unit;
  wait : unit -> unit;
  on_ripen : (int -> unit) -> unit;
  reader_enter : (Sim.Machine.cpu -> unit) option;
  reader_exit : (Sim.Machine.cpu -> unit) option;
}

val ripe : t -> int -> bool
(** [ripe t token] — has the frontier passed [token]? *)

val fire : (int -> unit) list -> int -> unit
(** Call each [on_ripen] hook with the new frontier, head first; schemes
    append on registration, as {!Rcu.on_gp_complete} does. These hooks
    drive reclamation, so they are not {!Sim.Probe} edges. *)

val of_rcu : Rcu.t -> t
(** The identity mapping onto RCU grace periods: defer = snapshot,
    ripe_upto = completed, request = request_gp, wait = synchronize,
    on_ripen = on_gp_complete. Reader tracking stays inside RCU
    (both hooks are [None]). *)
