(** RAPID's replica-metadata delta (§4.2): "the node only sends
    information about packets whose information changed since the last
    exchange".

    Each directed pair has a watermark, the time of its last exchange,
    and a backlog of entries a budget cut left unsent. An exchange offers
    the backlog, then every entry of the sender's DB updated after the
    watermark, each (packet, holder) once and read from the DB as it is
    now: an entry removed since it was deferred is skipped, a surviving
    one ships its freshest state. The oldest [budget] by (updated_at,
    packet id, holder id) merge into the receiver's DB in that order, the
    rest become the pair's backlog, and the watermark moves to [now]. *)

type t

val create : num_nodes:int -> t
(** Every watermark at [neg_infinity], every backlog empty. *)

val send :
  t ->
  now:float ->
  sender:int ->
  receiver:int ->
  src:Replica_db.t ->
  dst:Replica_db.t ->
  only:Rapid_sim.Buffer.t option ->
  budget:int ->
  int
(** One exchange from [sender]'s DB [src] into [receiver]'s DB [dst];
    returns the number of entries shipped, at most [budget].
    [only = Some buffer] offers only packets in [buffer] (the local-only
    channel, §6.2.6); a deferred entry whose packet has left it drops out
    of the backlog. *)

val forget_sender : t -> int -> unit
(** A reboot wiped the node's DB: reset its watermarks and empty its
    backlogs as a sender. Its peers' watermarks toward it stand. *)
