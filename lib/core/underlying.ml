type t = {
  u_name : string;
  u_label : int -> int;
  u_drive : Forward.exec -> dest_label:int -> unit;
  u_table_bits : int -> int;
  u_label_bits : int;
  u_header_bits : int;
}
