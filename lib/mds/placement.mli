(** Metadata placement.

    Decides which metadata server owns each inode. The paper motivates
    1PC precisely with placements that spread the files of one directory
    over several servers (to avoid turning the directory's server into a
    bottleneck), which makes most CREATE/DELETE operations distributed.

    Assignments are recorded at allocation time and are authoritative
    thereafter: [node_of] never changes its answer for a placed inode,
    whatever the strategy. They live in an array indexed by inode
    number, which suits the cluster's densely minted inodes: a sparse
    numbering would cost a word per number below the largest. *)

type strategy =
  | Hash  (** deterministic hash of the inode number over all servers *)
  | Round_robin  (** cycle through servers in allocation order *)
  | Colocate of float
      (** with the given probability place the inode on its parent's
          server (locality-preserving, Ceph-style); otherwise hash. The
          probability is clamped to [0, 1]. *)
  | Spread
      (** hash over every server {e except} the parent's: every CREATE
          and DELETE is a distributed transaction, like the paper's
          Figure 6 workload. Falls back to [Hash] on a one-server
          cluster. *)

type t

val create :
  ?rng:Simkit.Rng.t -> strategy:strategy -> servers:int -> unit -> t
(** [servers] is the cluster size. [rng] is required only by
    [Colocate]. @raise Invalid_argument if [servers <= 0]. *)

val servers : t -> int

val assign_root : t -> Update.ino -> server:int -> unit
(** Pin the root directory (or any pre-existing object) to a server.
    @raise Invalid_argument if the server is out of range or the inode
    negative. *)

val place : t -> parent_server:int -> Update.ino -> int
(** Choose and record the owner of a new inode.
    @raise Invalid_argument if the inode is negative or already placed. *)

val node_of : t -> Update.ino -> int
(** Owner of a placed inode. @raise Not_found if never placed. *)

val placed : t -> Update.ino -> bool
(** [false] for every inode never placed, negative ones included. *)
