(** Metadata updates.

    An update is one primitive mutation of a metadata server's local
    state — the "computational steps" of the paper's transactions. A
    distributed namespace operation decomposes into a few updates per
    participating server (see {!Planner}); the commit protocols log,
    apply, undo and redo updates without interpreting them further.

    Updates are designed to be {e locally decidable}: each can be
    validated and applied against a single server's state, so a worker
    can vote on its part of a transaction without remote reads. That is
    why DELETE uses {!Unref} (decrement and reap if the count hits zero)
    instead of a remove-with-precomputed-count. *)

type ino = int
(** Inode number; globally unique, allocated by the planner. *)

type kind = File | Directory

type t =
  | Create_inode of { ino : ino; kind : kind; nlink : int }
      (** Materialise an inode. [nlink] is its initial reference count
          (1 for a fresh CREATE; arbitrary when restoring state). *)
  | Link of { dir : ino; name : string; target : ino }
      (** Add the dentry [name -> target] to directory [dir]. *)
  | Unlink of { dir : ino; name : string }
      (** Remove the dentry [name] from [dir]. *)
  | Ref of { ino : ino }
      (** Increment the inode's reference count. *)
  | Unref of { ino : ino }
      (** Decrement the reference count; reap the inode when it reaches
          zero. Fails on a non-empty directory. *)
  | Touch of { ino : ino }
      (** Rewrite inode metadata in place (e.g. the parent back-pointer a
          RENAME updates). Fails if the inode does not exist. *)

val pp : Format.formatter -> t -> unit

val target_oid : t -> ino
(** The object the update mutates — the id the transaction must lock.
    For dentry updates this is the {e directory} (the paper's contended
    parent-directory lock), for inode updates the inode itself. *)

val lock_oids : t list -> ino list
(** The lock set of a list of updates: their {!target_oid}s, ascending
    and without duplicates. *)

val equal : t -> t -> bool
