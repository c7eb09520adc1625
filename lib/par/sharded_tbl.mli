(** A sharded concurrent [float]-valued table with a find-or-claim
    protocol. No solver uses it: it was the shared memo of the deleted
    parallel exact solve, and perf's probe replay still measures it.

    Keys hash to one of 128 independent shards, each a {!Memo_tbl} behind
    its own mutex — the bucket-ownership idiom: a key belongs to exactly
    one shard, so per-key operations take one lock, critical sections are
    a few instructions, and domains contend only when their keys collide
    on a shard.

    A binding is either claimed by an owner (some caller is computing the
    value) or resolved to a value. {!find_or_claim_slice} atomically
    returns the finished value, reports the claim's owner, or installs a
    claim for the caller: across any number of domains exactly one caller
    is told [`Claimed] per key and computes it; everyone else reads the
    value or knows whom to wait for. *)

type t

(** [create ()] makes an empty table. *)
val create : unit -> t

(** A claim token: the binding's {!Memo_tbl} handle in its shard, with
    the shard index packed into the low bits. *)
type token

(** [find_or_claim_slice t data ~len ~owner] atomically probes the key
    [Bytes.sub_string data 0 len], without materializing it:
    - [`Value v] — the key is resolved; [v] is shared.
    - [`Busy o] — claimed by owner-id [o] and not yet resolved. Callers
      use [o] to tell self-re-entry (a cycle) from another domain to help
      or wait for.
    - [`Claimed tok] — the claim was installed for this caller, which
      must eventually {!resolve} [tok].

    Raises [Invalid_argument] on a fresh claim with [owner < 0] or a key
    longer than {!Memo_tbl.max_key_length}. *)
val find_or_claim_slice :
  t -> Bytes.t -> len:int -> owner:int -> [ `Value of float | `Busy of int | `Claimed of token ]

(** [resolve t tok v] publishes [v] as the claimed binding's value, in
    place. Raises [Invalid_argument] if it is already resolved — a second
    resolution would mean two domains computed the same key, the bug the
    claim protocol exists to rule out. *)
val resolve : t -> token -> float -> unit

(** [get t key] is the resolved value, [None] while absent or claimed. *)
val get : t -> string -> float option

(** [resolved t] counts resolved bindings; exact when quiescent. *)
val resolved : t -> int
