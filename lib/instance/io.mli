(** Plain-text serialization of DSP instances.

    Format (line oriented; [#] starts a comment):
    {v
    dsp <width>
    <w> <h>        one line per item
    v}

    Parsing returns typed errors carrying the 1-based line number of
    the offending line in the {e original} text (comments and blank
    lines count), so a message like "line 7: not an integer" points at
    what the user actually wrote.  [line = 0] marks whole-file errors
    (empty input, constructor rejections with no single line to
    blame). *)

open Dsp_core

type error_kind =
  | Empty_input  (** no non-comment lines at all *)
  | Bad_header of string
      (** first line is not [dsp <width>] *)
  | Bad_cap of int  (** header width below 1 *)
  | Truncated_line of string  (** a data line without exactly two tokens *)
  | Bad_number of string  (** a token that is not an integer *)
  | Bad_dimension of int * int  (** a non-positive width or height *)
  | Too_wide of int * int
      (** [(value, cap)]: an item demand exceeding the header capacity *)
  | Invalid of string  (** rejection raised by the instance constructor *)

type error = { line : int; kind : error_kind }

val error_to_string : error -> string
(** Human-readable rendering, prefixed with ["line N: "] when [line > 0]. *)

val instance_to_string : Instance.t -> string
val instance_of_string : string -> (Instance.t, error) result
val read_file : string -> string

(** {2 Parsing toolkit}

    Shared by {!Trace}'s parser so every line-oriented format in this
    library reports errors the same way. *)

val relevant_lines : string -> (int * string) list
(** Non-blank, non-comment lines paired with their 1-based position in
    the original text. *)

val tokens : string -> string list
(** Whitespace-split tokens of one line. *)
