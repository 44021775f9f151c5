(** A bounded string-keyed table that evicts its least recently used
    entry: the engine's statement-plan table and shape memo. *)

type 'a t

val create : int -> 'a t
(** An empty table holding at most the given number of entries. *)

val find : 'a t -> string -> 'a option
(** The entry under the key, marked most recently used. *)

val peek : 'a t -> string -> 'a option
(** The entry under the key, recency unchanged. *)

val add : 'a t -> string -> 'a -> unit
(** Bind the key (replacing its entry, if any) as the most recently
    used, evicting the least recently used entry of a full table. *)

val length : 'a t -> int
