module ldbcsnb/benchmark

go 1.24

require ldbcsnb v0.0.0

replace ldbcsnb => ../
