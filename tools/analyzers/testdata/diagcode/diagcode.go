// Package diagcodetest exercises the diagcode analyzer: a Codes
// registry with a documented live row, an empty-doc row, a dead row,
// retired rows, and constructions of registered, unregistered and
// retired codes.
package diagcodetest

// Codes is the registry under test.
var Codes = map[string]string{
	"CH001": "documented and constructed",
	"CH002": "",                                 // want `diagnostic code "CH002" has an empty doc string`
	"CH003": "registered but never constructed", // want `diagnostic code "CH003" is registered in Codes but never constructed in this package`
	"HZ001": "hazver-tier code, documented and constructed",
	"HZ101": "no longer emitted",   // retired: exempt from the never-constructed check
	"HZ102": "retired but emitted", // retired
}

func report(code string) {}

func use() {
	report("CH001")
	report("CH002")
	report("CH999") // want `diagnostic code "CH999" constructed but not registered in this package's Codes table`
	report("HZ001")
	report("HZ999") // want `diagnostic code "HZ999" constructed but not registered in this package's Codes table`
	report("HZ102") // want `diagnostic code "HZ102" is retired and must not be constructed`
	report("not a code")
	report("CH12")   // shape mismatch: silent
	report("CH1234") // shape mismatch: silent
}
