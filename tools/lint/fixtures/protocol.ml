let parse_request l = if l = "" then None else Some l
