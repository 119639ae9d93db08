module farmer/bench

go 1.24.0

require farmer v0.0.0

replace farmer => ../
