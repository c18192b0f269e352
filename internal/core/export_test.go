package core

// The external test package shares the organization golden file.
var (
	GoldenSection = goldenSection
	CheckDigest   = checkDigest
)
