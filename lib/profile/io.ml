module Wire = Csspgo_support.Wire

type form = Text | Binary

let sniff s = if Binary_io.is_binary s then Binary else Text

let read s =
  match sniff s with
  | Binary -> (
      match Binary_io.decode s with
      | Ok p -> Ok p
      | Error e -> Error (Wire.error_to_string e))
  | Text -> (
      match Text_io.of_string s with
      | p -> Ok p
      | exception Text_io.Parse_error (msg, line) ->
          Error (Printf.sprintf "text parse error at line %d: %s" line msg))
