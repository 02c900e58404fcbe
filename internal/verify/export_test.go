package verify

// The enumeration oracle (enum_test.go), for the external test package.
type EnumReport = enumReport

var Enumerate = enumerate
