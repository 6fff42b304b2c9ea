type kind =
  | Nvlink
  | Nvswitch
  | Pcie
  | Infiniband
  | Host

let kind_name = function
  | Nvlink -> "NVLink"
  | Nvswitch -> "NVSwitch"
  | Pcie -> "PCIe"
  | Infiniband -> "InfiniBand"
  | Host -> "Host"

type t = {
  kind : kind;
  bandwidth : float;
  alpha : float;
  tb_cap : float;
}

let gb = 1e9

let nvlink_a100 =
  { kind = Nvswitch; bandwidth = 300. *. gb; alpha = 4.0e-6; tb_cap = 23. *. gb }

let nvlink_v100 =
  { kind = Nvswitch; bandwidth = 150. *. gb; alpha = 4.5e-6; tb_cap = 20. *. gb }

let ib_hdr =
  { kind = Infiniband; bandwidth = 25. *. gb; alpha = 14.0e-6; tb_cap = 13. *. gb }

let pcie_gen4 =
  { kind = Pcie; bandwidth = 26. *. gb; alpha = 6.0e-6; tb_cap = 15. *. gb }
