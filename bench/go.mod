module pipedream/bench

go 1.24

require pipedream v0.0.0

replace pipedream => ../
