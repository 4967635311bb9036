(** Errors shared by every file-system implementation in the repository. *)

type t =
  | No_such_file of string
  | Bad_name of { name : string; reason : string }
  | Volume_full
  | Too_fragmented of string
      (** the file's run table no longer fits its metadata record *)
  | Corrupt_metadata of string
      (** structural damage that requires scavenge/fsck (CFS, BSD) *)
  | Damaged_data of { name : string; sector : int }
  | Bad_page of { name : string; page : int }
  | Not_booted
  | Log_reclaim_stall of { third : int; pinned_pages : int }
      (** a log third is due for reclamation but a dirty page pinned in
          the cache holds no committed image that could be written home;
          reclaiming would destroy the only durable copy (§4.4) *)
  | Name_table_full
      (** every name-table page is in use; the insert that needed more
          was refused before it changed anything *)

exception Fs_error of t

val raise_ : t -> 'a
val pp : Format.formatter -> t -> unit
val to_string : t -> string
