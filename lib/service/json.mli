(** The wire protocol's JSON codec, re-exported from {!Json_codec}. *)

include module type of struct include Json_codec end
