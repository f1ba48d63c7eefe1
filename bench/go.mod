module rcbr/bench

go 1.22

require rcbr v0.0.0

replace rcbr => ../
