type t =
  | No_such_file of string
  | Bad_name of { name : string; reason : string }
  | Volume_full
  | Too_fragmented of string
  | Corrupt_metadata of string
  | Damaged_data of { name : string; sector : int }
  | Bad_page of { name : string; page : int }
  | Not_booted
  | Log_reclaim_stall of { third : int; pinned_pages : int }
  | Name_table_full

exception Fs_error of t

let raise_ e = raise (Fs_error e)

let pp ppf = function
  | No_such_file n -> Format.fprintf ppf "no such file: %s" n
  | Bad_name { name; reason } -> Format.fprintf ppf "bad name %S: %s" name reason
  | Volume_full -> Format.fprintf ppf "volume full"
  | Too_fragmented n -> Format.fprintf ppf "file too fragmented: %s" n
  | Corrupt_metadata m -> Format.fprintf ppf "corrupt metadata: %s" m
  | Damaged_data { name; sector } ->
    Format.fprintf ppf "damaged sector %d in %s" sector name
  | Bad_page { name; page } -> Format.fprintf ppf "page %d out of range in %s" page name
  | Not_booted -> Format.fprintf ppf "file system not booted"
  | Log_reclaim_stall { third; pinned_pages } ->
    Format.fprintf ppf
      "cannot reclaim log third %d: %d modified page(s) hold no committed image"
      third pinned_pages
  | Name_table_full -> Format.fprintf ppf "name table out of pages"

let to_string t = Format.asprintf "%a" pp t
